/* A heap-at-peak profiler to preload (LD_PRELOAD) into a program built
 * with frame pointers; x86-64 Linux, glibc. It interposes malloc, calloc,
 * realloc, free and the aligned allocators, keeps the live bytes of every
 * allocating call stack, and remembers what each stack held at the moment
 * the process's live total was highest. At exit it writes $HEAPPROF_OUT
 * (default heapprof.out): /proc/self/maps, a line "--", a line
 * "peak <bytes>", then one line per stack that held bytes at the peak:
 * the bytes, then the return addresses, hexadecimal, innermost first.
 * scripts/profile.sh builds and reads it.
 *
 * The snapshot at the peak is exact and costs O(1) a call: a new peak
 * only advances an epoch, and a stack saves its live bytes the first
 * time it changes in a newer epoch, so a stack untouched since the last
 * peak still holds what it held then. Sizes are the sizes asked for, as
 * a Rust global allocator counts them, not what malloc rounds them to. */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define DEPTH 32
#define STACKS (1u << 16)  /* distinct allocating stacks */
#define BLOCKS (1u << 21)  /* live allocations, linear probing */

struct stack {
    uint64_t hash, live, at_peak, stamp;
    unsigned depth;
    uintptr_t pc[DEPTH];
};

struct block {
    uintptr_t ptr;
    uint64_t size;
    uint32_t stack;
};

static struct stack stacks[STACKS];
static struct block blocks[BLOCKS];
static unsigned n_blocks;
static uint64_t live, peak, epoch, untracked;
static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
/* Set while this thread is inside the profiler: whatever it allocates
 * then (the report's stdio) is passed through. */
static __thread int busy __attribute__((tls_model("initial-exec")));
/* The top of this thread's stack, or 1 when it could not be found. */
static __thread uintptr_t stack_hi __attribute__((tls_model("initial-exec")));

/* The end of the mapping that holds `sp`, read from /proc/self/maps with
 * bare system calls. Not pthread_getattr_np: it allocates while holding
 * the thread's lock, and so may be what called malloc in the first
 * place. */
static uintptr_t stack_top(uintptr_t sp) {
    int fd = open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return 1;
    char buf[4096];
    uintptr_t lo = 0, hi = 0, *field = &lo;
    int at_start = 1; /* still inside the line's leading "lo-hi" */
    ssize_t got;
    while ((got = read(fd, buf, sizeof buf)) > 0) {
        for (ssize_t i = 0; i < got; i++) {
            char c = buf[i];
            if (c == '\n') {
                lo = hi = 0, field = &lo, at_start = 1;
            } else if (!at_start) {
                continue;
            } else if (c == '-') {
                field = &hi;
            } else if (c == ' ') {
                at_start = 0;
                if (lo <= sp && sp < hi) {
                    close(fd);
                    return hi;
                }
            } else {
                *field = *field << 4 | (uintptr_t)(c <= '9' ? c - '0' : c - 'a' + 10);
            }
        }
    }
    close(fd);
    return 1;
}

/* Return addresses of the caller's frames, following the frame-pointer
 * chain only upwards inside this thread's stack. */
static unsigned walk(uintptr_t *pc) {
    uintptr_t fp = (uintptr_t)__builtin_frame_address(0), here = fp;
    if (!stack_hi)
        stack_hi = stack_top(here);
    unsigned n = 0;
    while (n < DEPTH && fp >= here && fp + 16 <= stack_hi && fp % 8 == 0) {
        uintptr_t *frame = (uintptr_t *)fp;
        if (frame[1] < 4096)
            break;
        pc[n++] = frame[1];
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    return n;
}

static uint64_t mix(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
}

/* The slot of the stack `pc[..n]`, added if new; slot 0 collects the
 * stacks that find the table full. */
static uint32_t intern(const uintptr_t *pc, unsigned n) {
    uint64_t h = 0xcbf29ce484222325ull ^ n;
    for (unsigned i = 0; i < n; i++)
        h = mix(h ^ pc[i]);
    h |= 1;
    for (uint32_t probe = 0; probe < 64; probe++) {
        uint32_t at = (uint32_t)(h + probe) % (STACKS - 1) + 1;
        struct stack *s = &stacks[at];
        if (s->hash == 0) {
            s->hash = h, s->depth = n, s->stamp = epoch;
            memcpy(s->pc, pc, n * sizeof *pc);
            return at;
        }
        if (s->hash == h && s->depth == n && !memcmp(s->pc, pc, n * sizeof *pc))
            return at;
    }
    return 0;
}

/* Adds `delta` to a stack's live bytes, saving what it held at the last
 * peak first if this is its first change since. */
static void charge(uint32_t at, int64_t delta) {
    struct stack *s = &stacks[at];
    if (s->stamp != epoch)
        s->at_peak = s->live, s->stamp = epoch;
    s->live += delta;
    live += delta;
    if (live > peak)
        peak = live, epoch++;
}

static uint32_t slot_of(uintptr_t p) { return (uint32_t)mix(p) & (BLOCKS - 1); }

static void track(void *p, size_t size) {
    if (!p || busy)
        return;
    busy = 1;
    uintptr_t pc[DEPTH];
    unsigned n = walk(pc);
    pthread_mutex_lock(&lock);
    if (n_blocks < BLOCKS / 2) {
        uint32_t at = slot_of((uintptr_t)p);
        while (blocks[at].ptr)
            at = (at + 1) & (BLOCKS - 1);
        uint32_t s = intern(pc, n);
        blocks[at] = (struct block){(uintptr_t)p, size, s};
        n_blocks++;
        charge(s, (int64_t)size);
    } else {
        untracked++;
    }
    pthread_mutex_unlock(&lock);
    busy = 0;
}

/* Forgets `p`: linear probing with backward-shift deletion, so no
 * tombstones build up. */
static void untrack(void *p) {
    if (!p || busy)
        return;
    pthread_mutex_lock(&lock);
    uint32_t at = slot_of((uintptr_t)p);
    while (blocks[at].ptr && blocks[at].ptr != (uintptr_t)p)
        at = (at + 1) & (BLOCKS - 1);
    if (blocks[at].ptr) {
        charge(blocks[at].stack, -(int64_t)blocks[at].size);
        n_blocks--;
        uint32_t hole = at;
        for (uint32_t next = (hole + 1) & (BLOCKS - 1); blocks[next].ptr;
             next = (next + 1) & (BLOCKS - 1)) {
            uint32_t home = slot_of(blocks[next].ptr);
            /* Move `next` into the hole unless its home lies after the
             * hole on the way round to it. */
            if (((next - home) & (BLOCKS - 1)) >= ((next - hole) & (BLOCKS - 1))) {
                blocks[hole] = blocks[next];
                hole = next;
            }
        }
        blocks[hole] = (struct block){0, 0, 0};
    }
    pthread_mutex_unlock(&lock);
}

void *malloc(size_t size) {
    void *p = __libc_malloc(size);
    track(p, size);
    return p;
}

void *calloc(size_t n, size_t size) {
    void *p = __libc_calloc(n, size);
    track(p, n * size);
    return p;
}

void *realloc(void *old, size_t size) {
    untrack(old);
    void *p = __libc_realloc(old, size);
    track(p, size);
    return p;
}

void free(void *p) {
    untrack(p);
    __libc_free(p);
}

void *memalign(size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    track(p, size);
    return p;
}

void *aligned_alloc(size_t align, size_t size) { return memalign(align, size); }

int posix_memalign(void **out, size_t align, size_t size) {
    void *p = memalign(align, size);
    if (!p)
        return ENOMEM;
    *out = p;
    return 0;
}

__attribute__((destructor)) static void report(void) {
    busy = 1;
    pthread_mutex_lock(&lock);
    const char *path = getenv("HEAPPROF_OUT");
    FILE *out = fopen(path ? path : "heapprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (out && maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps))
            fputs(line, out);
        fprintf(out, "--\npeak %llu\n", (unsigned long long)peak);
        if (untracked)
            fprintf(stderr, "heapprof: table full, %llu allocations untracked\n",
                    (unsigned long long)untracked);
        for (uint32_t at = 0; at < STACKS; at++) {
            struct stack *s = &stacks[at];
            uint64_t held = s->stamp == epoch ? s->at_peak : s->live;
            if (!held)
                continue;
            fprintf(out, "%llu", (unsigned long long)held);
            for (unsigned i = 0; i < s->depth; i++)
                fprintf(out, " %lx", (unsigned long)s->pc[i]);
            fputc('\n', out);
        }
    }
    if (maps)
        fclose(maps);
    if (out)
        fclose(out);
    pthread_mutex_unlock(&lock);
}
