//! A count of the cryptographic operations this thread has made.
//!
//! Every signature made or checked, every authenticator tag and point MAC
//! made and every tag checked adds one here; every SHA-256 compression
//! adds the blocks it compressed. Authenticator tags are kept
//! apart by who made them: a sender that is one of the receivers (a
//! replica authenticating to its group) or one outside them (a client).
//! The counters are thread-local cells, so the counts of the
//! single-threaded simulator are exact, whatever else the process runs;
//! tier-1's crypto census reads them around one operation.

use std::cell::Cell;
use std::ops::Sub;

/// Operations counted on this thread since it started. Subtract two
/// readings to count what happened between them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Census {
    /// Simulated signatures made.
    pub signs: u64,
    /// Simulated signatures checked.
    pub sig_checks: u64,
    /// Authenticator tags made by a sender that is one of the receivers.
    pub member_tags: u64,
    /// Authenticator tags made by a sender outside the receivers.
    pub outside_tags: u64,
    /// Point MACs made.
    pub point_tags: u64,
    /// Authenticator entries and point MACs checked.
    pub tag_checks: u64,
    /// 64-byte blocks SHA-256 compressed, by either compress path.
    pub sha256_blocks: u64,
}

impl Sub for Census {
    type Output = Census;

    fn sub(self, earlier: Census) -> Census {
        Census {
            signs: self.signs - earlier.signs,
            sig_checks: self.sig_checks - earlier.sig_checks,
            member_tags: self.member_tags - earlier.member_tags,
            outside_tags: self.outside_tags - earlier.outside_tags,
            point_tags: self.point_tags - earlier.point_tags,
            tag_checks: self.tag_checks - earlier.tag_checks,
            sha256_blocks: self.sha256_blocks - earlier.sha256_blocks,
        }
    }
}

thread_local! {
    static COUNTS: Cell<Census> = const {
        Cell::new(Census {
            signs: 0,
            sig_checks: 0,
            member_tags: 0,
            outside_tags: 0,
            point_tags: 0,
            tag_checks: 0,
            sha256_blocks: 0,
        })
    };
}

/// Adds to this thread's counts.
pub(crate) fn count(f: impl FnOnce(&mut Census)) {
    COUNTS.with(|cell| {
        let mut counts = cell.get();
        f(&mut counts);
        cell.set(counts);
    });
}

/// This thread's counts so far.
pub fn census() -> Census {
    COUNTS.with(Cell::get)
}
