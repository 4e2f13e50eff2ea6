//! The Andrew benchmark workload (Howard et al., scaled per the paper).
//!
//! Five phases over an NFS tree:
//!
//! 1. **MakeDir** — recreate the directory hierarchy;
//! 2. **Copy** — copy the source files into it (create + write);
//! 3. **ScanDir** — stat every file (readdir + getattr);
//! 4. **ReadAll** — read every byte of every file;
//! 5. **Make** — a compile-like pass: read sources, write outputs.
//!
//! The paper ran a scaled-up version generating ~1 GB; the scale here is a
//! parameter, and `EXPERIMENTS.md` records which scale each table used.
//! Because oid allocation is deterministic, the generator precomputes every
//! handle.

use base_nfs::ops::NfsOp;
use base_nfs::relay::NfsDriver;
use base_nfs::spec::Oid;
use base_nfs::NfsReply;

/// Names of the five phases, in order.
pub const PHASES: [&str; 5] = ["MakeDir", "Copy", "ScanDir", "ReadAll", "Make"];

/// Workload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct AndrewScale {
    /// Number of directories.
    pub dirs: u32,
    /// Files per directory.
    pub files_per_dir: u32,
    /// File size in KiB.
    pub file_kib: u32,
}

impl AndrewScale {
    /// A quick scale for tests (~160 KiB of data).
    pub fn tiny() -> Self {
        Self { dirs: 2, files_per_dir: 4, file_kib: 20 }
    }

    /// The default table scale (~4 MiB of data).
    pub fn small() -> Self {
        Self { dirs: 5, files_per_dir: 10, file_kib: 80 }
    }

    /// A larger sweep point (~32 MiB).
    pub fn medium() -> Self {
        Self { dirs: 10, files_per_dir: 20, file_kib: 160 }
    }

    /// Total payload bytes written during the Copy phase.
    pub fn total_bytes(&self) -> u64 {
        u64::from(self.dirs) * u64::from(self.files_per_dir) * u64::from(self.file_kib) * 1024
    }

    /// Total file count.
    pub fn total_files(&self) -> u32 {
        self.dirs * self.files_per_dir
    }
}

/// Chunk size for writes/reads (NFS-style 8 KiB transfers).
const CHUNK: u32 = 8 * 1024;

/// The Andrew workload as an [`NfsDriver`].
pub struct AndrewDriver {
    ops: std::collections::VecDeque<NfsOp>,
    /// Operation index at which each phase ends (exclusive).
    pub phase_ends: [usize; 5],
}

impl AndrewDriver {
    /// Builds the operation stream for `scale`.
    pub fn new(scale: AndrewScale) -> Self {
        let root = Oid::ROOT;
        // Deterministic oid precomputation: dirs take indices 1..=dirs,
        // source files follow, then Make-phase outputs.
        let dir_oid = |d: u32| Oid { index: 1 + d, gen: 1 };
        let file_oid =
            |scale: &AndrewScale, d: u32, f: u32| Oid { index: 1 + scale.dirs + d * scale.files_per_dir + f, gen: 1 };
        let out_base = 1 + scale.dirs + scale.total_files();
        let out_oid = |d: u32| Oid { index: out_base + d, gen: 1 };

        let mut ops: Vec<NfsOp> = Vec::new();
        let mut phase_ends = [0usize; 5];

        // Phase 1: MakeDir.
        for d in 0..scale.dirs {
            ops.push(NfsOp::Mkdir { dir: root, name: format!("dir{d}"), mode: 0o755 });
        }
        phase_ends[0] = ops.len();

        // Phase 2: Copy — create each file and write its contents in
        // 8 KiB chunks.
        let file_bytes = u64::from(scale.file_kib) * 1024;
        for d in 0..scale.dirs {
            for f in 0..scale.files_per_dir {
                ops.push(NfsOp::Create {
                    dir: dir_oid(d),
                    name: format!("file{f}.c"),
                    mode: 0o644,
                });
                let fh = file_oid(&scale, d, f);
                let mut off = 0u64;
                while off < file_bytes {
                    let len = (file_bytes - off).min(u64::from(CHUNK)) as usize;
                    // Deterministic, compressible-ish content.
                    let data = vec![(off / 7 + u64::from(d) + u64::from(f)) as u8; len];
                    ops.push(NfsOp::Write { fh, offset: off, data });
                    off += len as u64;
                }
            }
        }
        phase_ends[1] = ops.len();

        // Phase 3: ScanDir — list each directory, stat every file.
        for d in 0..scale.dirs {
            ops.push(NfsOp::Readdir { dir: dir_oid(d) });
            for f in 0..scale.files_per_dir {
                ops.push(NfsOp::Getattr { fh: file_oid(&scale, d, f) });
            }
        }
        phase_ends[2] = ops.len();

        // Phase 4: ReadAll — read every byte of every file.
        for d in 0..scale.dirs {
            for f in 0..scale.files_per_dir {
                let fh = file_oid(&scale, d, f);
                let mut off = 0u64;
                while off < file_bytes {
                    let len = (file_bytes - off).min(u64::from(CHUNK)) as u32;
                    ops.push(NfsOp::Read { fh, offset: off, count: len });
                    off += u64::from(len);
                }
            }
        }
        phase_ends[3] = ops.len();

        // Phase 5: Make — read every source again and write one output
        // object file per directory (~1/4 of the source volume).
        for d in 0..scale.dirs {
            for f in 0..scale.files_per_dir {
                ops.push(NfsOp::Read { fh: file_oid(&scale, d, f), offset: 0, count: CHUNK });
            }
            ops.push(NfsOp::Create { dir: dir_oid(d), name: "prog.o".into(), mode: 0o755 });
            let out_bytes = file_bytes * u64::from(scale.files_per_dir) / 4;
            let fh = out_oid(d);
            let mut off = 0u64;
            while off < out_bytes {
                let len = (out_bytes - off).min(u64::from(CHUNK)) as usize;
                ops.push(NfsOp::Write { fh, offset: off, data: vec![0x42; len] });
                off += len as u64;
            }
        }
        phase_ends[4] = ops.len();

        Self { ops: ops.into(), phase_ends }
    }

    /// Maps per-op completion timestamps to per-phase durations (ns).
    pub fn phase_times(&self, completed_at_ns: &[u64]) -> [u64; 5] {
        let mut out = [0u64; 5];
        let mut start = 0u64;
        let mut start_idx = 0usize;
        for (i, end) in self.phase_ends.iter().enumerate() {
            if *end == 0 || *end > completed_at_ns.len() {
                break;
            }
            if *end > start_idx {
                let end_t = completed_at_ns[*end - 1];
                out[i] = end_t.saturating_sub(start);
                start = end_t;
            }
            start_idx = *end;
        }
        out
    }
}

impl NfsDriver for AndrewDriver {
    fn next(&mut self, _last: Option<(&NfsOp, &NfsReply)>) -> Option<NfsOp> {
        self.ops.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_ordered_and_nonempty() {
        let d = AndrewDriver::new(AndrewScale::tiny());
        assert!(d.phase_ends.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(d.phase_ends[4], d.ops.len());
    }

    #[test]
    fn copy_phase_covers_all_bytes() {
        let scale = AndrewScale::tiny();
        let mut d = AndrewDriver::new(scale);
        let mut written = 0u64;
        while let Some(op) = d.next(None) {
            if let NfsOp::Write { fh, data, .. } = op {
                // Only count source files (indices below the Make outputs).
                if u64::from(fh.index) <= u64::from(scale.dirs + scale.total_files()) {
                    written += data.len() as u64;
                }
            }
        }
        assert_eq!(written, scale.total_bytes());
    }

    #[test]
    fn phase_times_split_correctly() {
        let d = AndrewDriver::new(AndrewScale::tiny());
        // Fake: op i completes at (i+1) µs.
        let total_ops = d.ops.len() as u64;
        let times: Vec<u64> = (0..total_ops).map(|i| (i + 1) * 1000).collect();
        let phases = d.phase_times(&times);
        assert_eq!(phases.iter().sum::<u64>(), total_ops * 1000);
        assert_eq!(phases[0], d.phase_ends[0] as u64 * 1000);
    }
}
