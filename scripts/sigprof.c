/* A sampling profiler to preload (LD_PRELOAD) into a program built with
 * frame pointers; x86-64 Linux. On every kernel tick of CPU time
 * (ITIMER_PROF) the interrupted thread records its program counter and the
 * return addresses above it. At exit it writes $SIGPROF_OUT (default
 * sigprof.out): /proc/self/maps, a line "--", then one sample a line,
 * hexadecimal, innermost first. scripts/profile.sh builds and reads it. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>

#define DEPTH 48
#define SLOTS (1u << 20) /* 8 MiB of addresses: about 20 000 deep samples */

static uintptr_t buf[SLOTS], text_lo, text_hi;
static unsigned used;

static int in_text(uintptr_t a) { return a >= text_lo && a < text_hi; }

static void on_prof(int sig, siginfo_t *info, void *uc_) {
    (void)sig, (void)info;
    greg_t *regs = ((ucontext_t *)uc_)->uc_mcontext.gregs;
    uintptr_t frames[DEPTH + 2], here = (uintptr_t)&frames, fp = regs[REG_RBP];
    unsigned n = 0;
    frames[n++] = regs[REG_RIP];
    if (!in_text(regs[REG_RIP])) {
        /* Outside the executable (libc, the allocator) rbp may be any value:
         * take the first return address into the executable on the stack,
         * then walk on from the first frame record (a word pointing up the
         * stack, then a return address into the executable) above it. */
        uintptr_t *w = (uintptr_t *)regs[REG_RSP], *end = w + 512;
        while (w < end && !in_text(*w))
            w++;
        if (w < end)
            frames[n++] = *w;
        while (w < end && !(w[0] > (uintptr_t)w && w[0] - (uintptr_t)w < 4096 && in_text(w[1])))
            w++;
        fp = w < end ? (uintptr_t)w : 0;
    }
    /* Frames are followed only upwards on this handler's stack. */
    while (n <= DEPTH && fp > here && fp - here < (64u << 20) && fp % 8 == 0) {
        uintptr_t *frame = (uintptr_t *)fp;
        if (frame[1] == 0)
            break;
        frames[n++] = frame[1];
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    unsigned at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > SLOTS)
        return;
    for (unsigned i = 0; i < n; i++)
        buf[at + 1 + i] = frames[i];
    buf[at] = n;
}

/* The first object dl_iterate_phdr reports is the executable. */
static int find_text(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size, (void)data;
    for (int i = 0; i < info->dlpi_phnum; i++)
        if (info->dlpi_phdr[i].p_type == PT_LOAD && (info->dlpi_phdr[i].p_flags & PF_X)) {
            text_lo = info->dlpi_addr + info->dlpi_phdr[i].p_vaddr;
            text_hi = text_lo + info->dlpi_phdr[i].p_memsz;
        }
    return 1;
}

__attribute__((constructor)) static void start(void) {
    dl_iterate_phdr(find_text, NULL);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fputs("--\n", out);
    for (unsigned at = 0; at < SLOTS && buf[at] && at + buf[at] < SLOTS; at += buf[at] + 1)
        for (unsigned i = 1; i <= buf[at]; i++)
            fprintf(out, i < buf[at] ? "%lx " : "%lx\n", (unsigned long)buf[at + i]);
    fclose(maps), fclose(out);
}
