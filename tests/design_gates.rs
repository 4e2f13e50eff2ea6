//! Design gates: each simplification that deleted a second way of doing
//! something keeps it deleted with one test here. A gate reads the sources
//! under `crates/ src/ tests/ examples/ scripts/` and reports every line
//! that breaks its rule as `path:line: text`; its doc comment states the
//! rule and the DESIGN.md section it cites.
//!
//! `every_gate_fires_on_its_plant` shows each gate failing on a planted
//! violation, `named_tests_are_declared` keeps the tests the docs name
//! from vanishing under a rename, and `ci_runs_no_gate_of_its_own` keeps
//! the next rule of this kind here rather than in a CI step.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// The directories every gate scans, relative to the repository root.
const ROOTS: [&str; 5] = ["crates", "src", "tests", "examples", "scripts"];

/// This file names every banned word, so the walker skips it.
const SELF: &str = "tests/design_gates.rs";

const REPLICA: &str = "crates/pbft/src/replica/";

/// Source files by path relative to the repository root.
#[derive(Default)]
struct Tree(BTreeMap<String, String>);

/// One line that breaks a gate's rule.
struct Hit {
    path: String,
    line: usize,
    text: String,
}

impl fmt::Display for Hit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.path, self.line, self.text)
    }
}

fn hit((path, line, text): (&str, usize, &str)) -> Hit {
    Hit {
        path: path.into(),
        line,
        text: text.into(),
    }
}

fn report(hits: &[Hit]) -> String {
    hits.iter().map(|h| format!("\n  {h}")).collect()
}

/// How a pattern matches a line: anywhere (`grep`) or as a whole word
/// (`grep -w`).
enum Mode {
    Substring,
    Word,
}

impl Tree {
    fn read() -> Tree {
        fn walk(root: &Path, dir: &Path, tree: &mut Tree) {
            for entry in fs::read_dir(dir).expect("a source directory is readable") {
                let path = entry.expect("a directory entry is readable").path();
                if path.is_dir() {
                    walk(root, &path, tree);
                    continue;
                }
                let rel = path
                    .strip_prefix(root)
                    .expect("the walk stays under the root");
                let rel = rel.to_string_lossy().replace('\\', "/");
                if rel != SELF {
                    let bytes = fs::read(&path).expect("a source file is readable");
                    tree.0
                        .insert(rel, String::from_utf8_lossy(&bytes).into_owned());
                }
            }
        }
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut tree = Tree::default();
        for dir in ROOTS {
            walk(root, &root.join(dir), &mut tree);
        }
        tree
    }

    /// Every line of the files `scope` admits, with its 1-based number.
    fn lines<'a>(
        &'a self,
        scope: impl Fn(&str) -> bool + 'a,
    ) -> impl Iterator<Item = (&'a str, usize, &'a str)> + 'a {
        self.0
            .iter()
            .filter(move |(path, _)| scope(path))
            .flat_map(|(path, text)| {
                text.lines()
                    .enumerate()
                    .map(move |(i, line)| (path.as_str(), i + 1, line))
            })
    }

    /// The lines of the files `scope` admits that hold one of the
    /// `|`-separated `words`.
    fn grep(&self, scope: impl Fn(&str) -> bool, mode: Mode, words: &str) -> Vec<Hit> {
        self.lines(scope)
            .filter(|(_, _, line)| {
                words.split('|').any(|w| match mode {
                    Mode::Substring => line.contains(w),
                    Mode::Word => has_word(line, w),
                })
            })
            .map(hit)
            .collect()
    }
}

/// The tree as checked out, read once for every test.
fn tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(Tree::read)
}

/// Whether `word` occurs in `line` between non-word characters, as
/// `grep -w` matches it.
fn has_word(line: &str, word: &str) -> bool {
    let is_word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    line.match_indices(word).any(|(i, _)| {
        !is_word(line[..i].chars().next_back()) && !is_word(line[i + word.len()..].chars().next())
    })
}

fn anywhere(_: &str) -> bool {
    true
}

/// Admits the files under (or equal to) one of `prefixes`.
fn under(prefixes: &'static [&'static str]) -> impl Fn(&str) -> bool {
    move |path| prefixes.iter().any(|p| path.starts_with(p))
}

/// A file of `crates/*/src`.
fn library(path: &str) -> bool {
    path.starts_with("crates/") && path.split('/').nth(2) == Some("src")
}

/// A file directly in `crates/pbft/src/replica/`.
fn replica_part(path: &str) -> bool {
    path.strip_prefix(REPLICA)
        .is_some_and(|f| f.ends_with(".rs") && !f.contains('/'))
}

/// The lines of `text` before its inline tests.
fn before_tests(text: &str) -> impl Iterator<Item = &str> {
    text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"))
}

type Gate = fn(&Tree) -> Vec<Hit>;

/// One MAC (DESIGN.md §11.5): an authenticator entry is SipHash-2-4
/// under a session key. HMAC-SHA256 only derives keys and stands in for
/// signatures, so it is back neither on the per-message path nor cached
/// inside a session key.
fn one_mac(t: &Tree) -> Vec<Hit> {
    let files = under(&["crates/crypto/src/auth.rs", "crates/crypto/src/keys.rs"]);
    t.grep(files, Mode::Substring, "Hmac|hmac")
}

/// One wire declaration (DESIGN.md §11.3): a wire type is an
/// `xdr_struct!`/`xdr_union!` declaration. A hand-written codec in the
/// protocol and service crates is a type that should go through the spec,
/// or one the §11.3 table must explain, as it does `DigestCache`.
fn one_wire_declaration(t: &Tree) -> Vec<Hit> {
    let crates = under(&[
        "crates/pbft/src/",
        "crates/nfs/src/",
        "crates/oodb/src/",
        "crates/core/src/",
    ]);
    let mut hits = t.grep(
        crates,
        Mode::Substring,
        "impl XdrEncode for|impl XdrDecode for",
    );
    hits.retain(|h| !h.text.contains("DigestCache"));
    hits
}

/// Dense message path (DESIGN.md §11.4): the simulator's
/// per-message files hold no hashed per-node container and no set of
/// cancelled-timer tombstones.
fn dense_message_path(t: &Tree) -> Vec<Hit> {
    let files = under(&[
        "crates/simnet/src/sim.rs",
        "crates/simnet/src/stats.rs",
        "crates/simnet/src/event.rs",
    ]);
    t.grep(files, Mode::Substring, "HashMap<NodeId|HashSet<u64>")
}

/// One path (DESIGN.md §15, §16): state transfer has one fetch path
/// and one leaf digest, and execution one executor, in batch order. No
/// name of the fragment ladder, the chunked leaves and their chunk fetch,
/// the worker pool or the conflict partition is back, but for the
/// `Service::set_exec_workers` and `Service::set_chunk_size` default
/// no-ops that `benchmark/` still overrides; and no code in `crates/*/src`
/// starts a thread: a campaign runs its seeds in order on the one harness
/// it is lent (DESIGN.md §7.1). So no code there takes a lock either: a
/// memo is a `std::cell` cell, not a `OnceLock`, `Mutex` or `RwLock`.
fn one_path(t: &Tree) -> Vec<Hit> {
    let mut hits = t.grep(
        anywhere,
        Mode::Substring,
        "coded_transfer|exec_workers|lane_makespan|enable_coded|CHUNK_WHOLE|reconstruct_verified|conflict_groups|exec_groups|exec_serial_ns|\
         chunk_size|chunk_count|chunk_digest|chunked_leaf_digest|chunked_leaf_from_digests|FetchChunks|ChunksReply|FetchChunkData|ChunkData|\
         ChunkSnapshot|ChunkedObject|with_chunk_size|awaits_chunks|on_chunks_reply|on_chunk_data|chunk_queries|chunks_reused|chunks_rehashed|RECOVERY_CHUNK",
    );
    hits.retain(|h| {
        let default = |f: &str| h.text.starts_with(&format!("    fn {f}("));
        !(h.path == "crates/pbft/src/service.rs"
            && (default("set_exec_workers") || default("set_chunk_size")))
    });
    hits.extend(t.grep(library, Mode::Substring, "thread::|OnceLock|Mutex|RwLock"));
    hits
}

/// One fault model (DESIGN.md §5, §7, §10.1, §13): a network fault is one
/// `NetFault` value that acts on messages, digests and shrinks itself,
/// added to the simulator as a time window. The filter chain,
/// `NetConfig`'s loss, cut links and bandwidth, and the knobs that had one
/// value are gone: the batch and tick sizes, the client and view-change
/// timeout seeds, and the per-actor price list, since every charge reads
/// the one `COST`.
fn one_fault_model(t: &Tree) -> Vec<Hit> {
    t.grep(
        anywhere,
        Mode::Word,
        "NetFilter|FilterChain|ActiveWindow|set_filter|drop_prob|cut_link|link_latency|net_faults|batch_max|tick_interval\
         |client_timeout|view_change_timeout|bandwidth_bytes_per_sec|set_cost_model|signatures_only",
    )
}

/// The files besides `crates/crypto/` that may mint a key directory:
/// `base_pbft::deploy::Deployment` and the message-level fixtures (a
/// hand-built key set, a mock replica, a `Sink` rig, the allocation
/// census).
const MINTS_KEYS: [&str; 9] = [
    "crates/pbft/src/deploy.rs",
    "crates/pbft/src/messages.rs",
    "crates/pbft/src/replica/mod.rs",
    "crates/pbft/tests/unit_client.rs",
    "crates/pbft/tests/unit_pipeline.rs",
    "crates/pbft/tests/unit_protocol.rs",
    "crates/pbft/tests/proptest_messages.rs",
    "crates/core/tests/alloc_budget.rs",
    "crates/core/tests/service_unit.rs",
];

/// One deployment (DESIGN.md §3, §17): a replica group is laid out
/// and keyed in one place, `base_pbft::deploy::Deployment`. No deleted
/// group builder or the one-value view-change cap is back, and only the
/// crypto crate and `MINTS_KEYS` call `KeyDirectory::generate`.
fn one_deployment(t: &Tree) -> Vec<Hit> {
    let mut hits = t.grep(
        anywhere,
        Mode::Word,
        "TestGroup|NfsTestbed|build_counter_group|build_group|build_replicated_nfs_n|build_replicated_nfs_with|view_change_timeout_cap",
    );
    let minters = |p: &str| !p.starts_with("crates/crypto/") && !MINTS_KEYS.contains(&p);
    hits.extend(t.grep(minters, Mode::Substring, "KeyDirectory::generate"));
    hits
}

/// MAC-only normal case (DESIGN.md §3.1, §7): a pre-prepare and a
/// prepare carry an authenticator and no signature, and a view change
/// proves preparedness with P and Q sets, so neither struct declares a
/// `sig` field and the signed `PreparedProof` is gone.
fn mac_only_normal_case(t: &Tree) -> Vec<Hit> {
    let mut hits = Vec::new();
    let mut inside = false;
    for line in t.lines(under(&["crates/pbft/src/messages.rs"])) {
        let text = line.2;
        inside |=
            text.contains("pub struct PrePrepareMsg {") || text.contains("pub struct PrepareMsg {");
        if inside && text.contains("sig:") {
            hits.push(hit(line));
        }
        inside &= !text.starts_with("    }");
    }
    hits.extend(t.grep(anywhere, Mode::Word, "PreparedProof"));
    hits
}

/// Replica shape (DESIGN.md §3.1): the replica is a router over
/// parts that own their state. No file of `crates/pbft/src/replica/` is
/// over 500 lines before its tests, `Io::exec` is the one place that
/// builds an `ExecEnv`, and the view-change timer, the one timer the
/// replica cancels, is armed and cancelled only by its owner,
/// `view_change.rs`.
fn replica_shape(t: &Tree) -> Vec<Hit> {
    let mut hits = Vec::new();
    for (path, text) in t.0.iter().filter(|(p, _)| replica_part(p)) {
        let lines = before_tests(text).count();
        if lines > 500 {
            let text = format!("{lines} lines before its tests (limit 500)");
            hits.push(Hit {
                path: path.clone(),
                line: lines,
                text,
            });
        }
    }
    let exec_envs = t.grep(replica_part, Mode::Substring, "ExecEnv::new");
    if exec_envs.len() > 1 {
        hits.extend(exec_envs);
    }
    let view_change = format!("{REPLICA}view_change.rs");
    let timers = t
        .lines(|p| replica_part(p) && p != view_change)
        .filter(|(_, _, l)| {
            l.contains("cancel_timer")
                || l.find("set_timer(")
                    .is_some_and(|i| l[i..].contains("TOKEN_VIEW_CHANGE"))
        });
    hits.extend(timers.map(hit));
    hits
}

/// The files that implement `ChaosHarness`: the two harnesses and the
/// engine's test doubles.
const HARNESSES: [&str; 5] = [
    "crates/pbft/src/chaos.rs",
    "crates/core/src/shard_chaos.rs",
    "crates/simnet/src/chaos.rs",
    "crates/simnet/src/ddmin.rs",
    "crates/simnet/tests/proptest_chaos.rs",
];

/// Whether `line` matches `impl(<[^>]*>)? ChaosHarness for`.
fn impls_chaos_harness(line: &str) -> bool {
    line.match_indices("impl").any(|(i, _)| {
        let rest = &line[i + "impl".len()..];
        let rest = match rest.strip_prefix('<') {
            Some(generics) => generics.find('>').map_or("", |j| &generics[j + 1..]),
            None => rest,
        };
        rest.starts_with(" ChaosHarness for")
    })
}

/// One campaign harness (DESIGN.md §7, §10): every single-group
/// service runs as a `Workload` of `base_pbft::chaos::ServiceCampaign`,
/// and the sharded deployment is the one other real harness. No file
/// outside `HARNESSES` implements `ChaosHarness`, and no per-service
/// harness is back.
fn one_campaign_harness(t: &Tree) -> Vec<Hit> {
    let others = t.lines(|p| !HARNESSES.contains(&p));
    let mut hits: Vec<Hit> = others
        .filter(|(_, _, l)| impls_chaos_harness(l))
        .map(hit)
        .collect();
    hits.extend(t.grep(
        anywhere,
        Mode::Word,
        "WithStatus|CounterChaosHarness|KvChaosHarness|OodbChaosHarness|NfsChaosHarness",
    ));
    hits
}

/// One vocabulary (DESIGN.md §10): every trace event is one
/// `protocol_events!` entry and a trace is one `Trace` type. The deleted
/// sink types and the folded pipeline gate are gone.
fn one_vocabulary(t: &Tree) -> Vec<Hit> {
    t.grep(
        anywhere,
        Mode::Word,
        "TraceSink|NullSink|RingBufferSink|VecSink|pipeline_depth|committed_floor",
    )
}

/// One caller (ROADMAP item 15): every item in `crates/*/src` has a
/// reader outside its own file's tests. The POSIX shim no program ran, the
/// counters nobody read and the public API no caller reached are gone.
/// The deleted typed counter fields are not listed: the registry counters
/// that stay carry their words.
fn one_caller(t: &Tree) -> Vec<Hit> {
    t.grep(
        anywhere,
        Mode::Word,
        "PosixDriver|FsCall|FsOut|WrapperStats|KeyPair|merged_metrics|with_max_item_len|put_raw|inbox_depth|impl_name|current_rto|null_batch_digest|highest_with|dirty_objects|store_mut|attr_mut",
    )
}

/// One adoption (DESIGN.md §8): every proof of a stable checkpoint
/// goes through one `Checkpoints::adopt` and then one `catch_up`, and a
/// running fetch does not silence the idle probes. No flag selects between
/// adoption side effects, and the two lines above each `rec.probe(` in
/// `router.rs` do not mention the fetch.
fn one_adoption(t: &Tree) -> Vec<Hit> {
    let mut hits = t.grep(under(&["crates/pbft/src/"]), Mode::Word, "own_quorum");
    let router: Vec<_> = t
        .lines(under(&["crates/pbft/src/replica/router.rs"]))
        .collect();
    for (i, line) in router.iter().enumerate() {
        if line.2.contains("rec.probe(") {
            let above = &router[i.saturating_sub(2)..=i];
            hits.extend(
                above
                    .iter()
                    .filter(|l| has_word(l.2, "fetch"))
                    .map(|&l| hit(l)),
            );
        }
    }
    hits
}

/// One placement (DESIGN.md §17): a shard is a placement, not a
/// protocol mode. Every group sends the one wire encoding and groups are
/// told apart by sender, so the tagged codec and `Config.shard` are gone
/// (word match: a kept test name holds `with_sharded`), and
/// `SHARD_ENVELOPE_TAG` is named only by its declaration.
fn one_placement(t: &Tree) -> Vec<Hit> {
    let mut hits = t.grep(
        anywhere,
        Mode::Word,
        "to_wire_tagged|from_wire_tagged|with_shard|cfg.shard",
    );
    let mut tags = t.grep(anywhere, Mode::Substring, "SHARD_ENVELOPE_TAG");
    tags.retain(|h| {
        !(h.path == "crates/pbft/src/messages.rs"
            && h.text == "pub const SHARD_ENVELOPE_TAG: u32 = 19;")
    });
    hits.extend(tags);
    hits
}

/// One decode path (DESIGN.md §11.7): a receiver decodes the frame it
/// was handed, through `Message::from_payload`. `Message::from_wire`, which
/// copies bytes into a frame first, is for callers outside the library
/// that hold bytes and no frame, so in `crates/*/src` it appears only at
/// its definition.
fn one_decode_path(t: &Tree) -> Vec<Hit> {
    t.grep(library, Mode::Substring, "Message::from_wire(")
}

/// One event reading (DESIGN.md §10, §13, §14): `span::Timeline::of` is
/// the one pass over a run's events, and the chaos engine's auditors and
/// coverage read only the timeline, so `simnet/src/chaos.rs` names no
/// protocol event variant. The three liveness knobs, their campaign
/// constant, the auditor over raw events and the second coverage reading
/// are gone. A run's trace keeps every event, so the ring that evicted
/// them, its capacity and its eviction counter are gone too, and so is the
/// lab's campaign worker count.
fn one_event_reading(t: &Tree) -> Vec<Hit> {
    let mut hits = t.grep(
        under(&["crates/simnet/src/chaos.rs"]),
        Mode::Substring,
        "ProtocolEvent::",
    );
    hits.extend(t.grep(
        anywhere,
        Mode::Word,
        "LivenessBounds|CAMPAIGN_BOUNDS|audit_liveness_bounds|from_trace|\
         Trace::ring|RUN_TRACE_CAP|trace_events_dropped|CAMPAIGN_WORKERS",
    ));
    hits
}

/// One test double (DESIGN.md §7.1, §10.1): the crash-threshold harness
/// is `simnet::ddmin::CrashThreshold`, the correct replica answering a
/// fetch is `pbft::testing::RemoteCheckpoint`, the live toy system is
/// `simnet::ddmin::{Pinger, PingHarness}`, and every campaign writes its
/// coverage and repro through `CampaignReport::write_artifacts`. None of
/// their deleted copies is back, and no file under `crates/` declares a
/// double a second time (the tests that use them keep it declared once).
fn one_test_double(t: &Tree) -> Vec<Hit> {
    let mut hits = t.grep(
        anywhere,
        Mode::Word,
        "CrashCounting|CrashSensitive|serve_fetch|RemoteState|write_campaign_artifacts",
    );
    for double in [
        "struct CrashThreshold",
        "struct RemoteCheckpoint",
        "struct Pinger",
        "struct PingHarness",
    ] {
        let declared = t.grep(under(&["crates/"]), Mode::Word, double);
        if declared.len() > 1 {
            hits.extend(declared);
        }
    }
    hits
}

/// One fetch window (DESIGN.md §12): a replica fetches with the one
/// `FETCH_WINDOW`, so the window's start and ceiling and its peak metric
/// are gone from `crates/*/src`; and a checkpoint object is found by a
/// scan over the few retained reverse-delta records, so the per-object
/// index over them is gone too.
fn one_fetch_window(t: &Tree) -> Vec<Hit> {
    t.grep(
        library,
        Mode::Word,
        "DEFAULT_FETCH_WINDOW|FETCH_WINDOW_MAX|window_max|peak_window|record_seqs",
    )
}

/// Fixed timers (DESIGN.md §13): a client's retransmission timer and a
/// view's progress timer start at the one `RTO` and grow only by backoff
/// or escalation, so the round-trip estimator, its smoothed state and the
/// client's separate first timeout are gone from `crates/*/src`.
fn fixed_timers(t: &Tree) -> Vec<Hit> {
    t.grep(
        library,
        Mode::Word,
        "RttEstimator|agree_rtt|CLIENT_RTO_INITIAL|RTO_FLOOR|srtt|rttvar",
    )
}

/// One context (DESIGN.md §3.1): a handler's `Context` is built by its one
/// public constructor in `simnet/src/actor.rs`, which `Simulation` calls
/// for every handler as any other driver of the step function does. So the
/// struct literal appears nowhere else, the simulator's second invoke path
/// is gone, and so are the test actors whose only job was to get a context
/// to one real replica.
fn one_context(t: &Tree) -> Vec<Hit> {
    let mut hits = t.grep(
        |p| p != "crates/simnet/src/actor.rs",
        Mode::Word,
        "Context {",
    );
    hits.extend(t.grep(anywhere, Mode::Word, "invoke_with_lag"));
    hits.extend(t.grep(
        under(&["crates/pbft/"]),
        Mode::Word,
        "struct Installs|struct Recorder",
    ));
    hits
}

/// One outbound filter (DESIGN.md §3.1): a Byzantine mode that shapes
/// messages changes only the frames that leave the replica, in
/// `Io::outbound`, so what the replica logs, stores and counts is what an
/// honest one would hold. Outside `io.rs`, no code of
/// `crates/pbft/src/replica/` before its tests names one of the five
/// shaping modes, and the equivocating primary's own send path is gone.
fn one_outbound_filter(t: &Tree) -> Vec<Hit> {
    const SHAPING: [&str; 5] = [
        "CorruptReplies",
        "EquivocatePrimary",
        "CorruptCheckpoints",
        "WithholdCommits",
        "BadTimestamps",
    ];
    let io = format!("{REPLICA}io.rs");
    let mut hits = Vec::new();
    for (path, text) in t.0.iter().filter(|(p, _)| replica_part(p) && **p != io) {
        for (i, line) in before_tests(text).enumerate() {
            if SHAPING.iter().any(|mode| has_word(line, mode)) {
                hits.push(hit((path, i + 1, line)));
            }
        }
    }
    hits.extend(t.grep(anywhere, Mode::Word, "fn equivocate"));
    hits
}

/// Tags over headers (DESIGN.md §11.5): an agreement message or a reply
/// is tagged over its signed bytes, so no SHA-256 of them is computed
/// before its MAC. The signed bytes are hashed only for the two digests
/// that name a message, in `messages.rs`: `RequestMsg::digest` and
/// `ViewChangeMsg::digest`, and by a test that holds one of those to its
/// definition (a `.digest()` on the same line). Anywhere else in
/// `crates/*/src` and `crates/*/tests`, hashing them is a header hashed
/// again, and a tag built by hand over that digest compiles (an
/// authenticator takes any bytes) and then fails at the receiver.
fn tags_over_headers(t: &Tree) -> Vec<Hit> {
    let scope =
        |p: &str| p.starts_with("crates/") && matches!(p.split('/').nth(2), Some("src" | "tests"));
    let hashed = |line: &str| {
        line.contains("with_signed_bytes(Digest::of)")
            || line.split("Digest::of(&").skip(1).any(|arg| {
                arg.split(')')
                    .next()
                    .is_some_and(|a| a.ends_with(".signed_bytes("))
            })
    };
    let mut hits = Vec::new();
    let mut naming = false;
    for line @ (path, _, text) in t.lines(scope) {
        let messages = path == "crates/pbft/src/messages.rs";
        if messages && text.starts_with("impl ") {
            naming = text == "impl RequestMsg {" || text == "impl ViewChangeMsg {";
        }
        if hashed(text) && !(messages && naming) && !text.contains(".digest()") {
            hits.push(hit(line));
        }
    }
    hits
}

/// Keys without a lock (DESIGN.md §11.5): the key directory is a plain
/// table shared by `Rc` on the one thread the simulator runs. Every
/// session key is derived when the directory is made and again when its
/// receiver's epoch moves, so a lookup reads a cell. No lock, no
/// poisoned-lock `expect` and no table of keys not yet derived
/// (`Option<SessionKey>` held in a container) is back in
/// `crates/crypto/src`.
fn keys_without_a_lock(t: &Tree) -> Vec<Hit> {
    t.grep(
        under(&["crates/crypto/src/"]),
        Mode::Substring,
        "RwLock|Mutex|poisoned|Option<SessionKey>>",
    )
}

/// One reading of a slot (DESIGN.md §15): each agreement fact is kept
/// once and read off what the replica already holds. A slot's stage is
/// what its logged messages add up to in the installed view, with the
/// execution point; its own COMMIT is the one in the log; the stable
/// checkpoint is its certificate's; and the installed view is the last
/// NEW-VIEW's. So no struct field (a line four spaces in, `name: Type`)
/// of `log.rs` is a `stage`, `commit_sent`, `executed` or `live`, none of
/// `replica/checkpoint.rs` a `stable_seq` (the wire field of
/// `ViewChangeMsg` is declared in `messages.rs`) and none of
/// `replica/view_change.rs` a `last_new_view`; and the stage index's
/// upkeep (`observe`, `restage`, `rewind`) is gone from `crates/pbft/src`.
fn one_reading_of_a_slot(t: &Tree) -> Vec<Hit> {
    const STORED: [(&str, &str); 3] = [
        ("crates/pbft/src/log.rs", "stage|commit_sent|executed|live"),
        ("crates/pbft/src/replica/checkpoint.rs", "stable_seq"),
        ("crates/pbft/src/replica/view_change.rs", "last_new_view"),
    ];
    let mut hits = Vec::new();
    for (path, fields) in STORED {
        let Some(text) = t.0.get(path) else { continue };
        for (i, line) in before_tests(text).enumerate() {
            let Some(field) = line.strip_prefix("    ").filter(|f| !f.starts_with(' ')) else {
                continue;
            };
            let field = ["pub ", "pub(crate) ", "pub(super) "]
                .iter()
                .fold(field, |f, vis| f.strip_prefix(vis).unwrap_or(f));
            if fields.split('|').any(|name| field.starts_with(&format!("{name}:"))) {
                hits.push(hit((path, i + 1, line)));
            }
        }
    }
    hits.extend(t.grep(
        under(&["crates/pbft/src/"]),
        Mode::Substring,
        "fn observe(|fn restage(|fn rewind(",
    ));
    hits
}

fn holds(gate: Gate) {
    let hits = gate(tree());
    assert!(
        hits.is_empty(),
        "the rule in this gate's doc comment is broken at:{}",
        report(&hits)
    );
}

macro_rules! gate_tests {
    ($($gate:ident),* $(,)?) => {
        /// Each gate on the tree as checked out.
        mod holds {
            $(#[test]
            fn $gate() {
                super::holds(super::$gate)
            })*
        }
    };
}

gate_tests!(
    one_mac,
    one_wire_declaration,
    dense_message_path,
    one_path,
    one_fault_model,
    one_deployment,
    mac_only_normal_case,
    replica_shape,
    one_campaign_harness,
    one_vocabulary,
    one_caller,
    one_adoption,
    one_placement,
    one_decode_path,
    one_event_reading,
    one_test_double,
    one_fetch_window,
    fixed_timers,
    one_context,
    one_outbound_filter,
    tags_over_headers,
    keys_without_a_lock,
    one_reading_of_a_slot,
);

/// Each gate, run on a tree of one existing file, passes on the file as
/// checked out and reports a violation planted at its top. The plants cover
/// every rule of a gate that scans files of its own choosing, and the
/// roots that the scan-everywhere gates newly reach (`src/`, `scripts/`).
#[test]
fn every_gate_fires_on_its_plant() {
    let long_part = "\n".repeat(501);
    #[rustfmt::skip]
    let plants: [(Gate, &str, &str); 68] = [
        (one_mac, "crates/crypto/src/auth.rs", "use crate::hmac::HmacSha256;"),
        (one_mac, "crates/crypto/src/keys.rs", "key: hmac_key,"),
        (one_wire_declaration, "crates/core/src/lib.rs", "impl XdrEncode for Thing {}"),
        (dense_message_path, "crates/simnet/src/event.rs", "dead: HashSet<u64>,"),
        (one_path, "crates/pbft/src/transfer.rs", "// coded_transfer"),
        (one_path, "crates/pbft/src/service.rs", "fn set_exec_workers(&mut self) {}"),
        (one_path, "crates/pbft/src/config.rs", "    pub chunk_size: usize,"),
        (one_path, "crates/pbft/src/service.rs", "        let _ = chunk_size;"),
        (one_path, "crates/core/src/lib.rs", "std::thread::spawn(|| ());"),
        (one_path, "crates/simnet/src/chaos.rs", "std::thread::scope(|_| ());"),
        (one_path, "crates/pbft/src/messages.rs", "struct DigestCache(std::sync::OnceLock<Digest>);"),
        (one_path, "crates/simnet/src/sim.rs", "use std::sync::{Mutex, RwLock};"),
        (one_fault_model, "src/lib.rs", "// drop_prob"),
        (one_fault_model, "crates/pbft/src/config.rs", "    pub view_change_timeout: SimDuration,"),
        (one_deployment, "scripts/tier1.sh", "# build_group"),
        (one_deployment, "crates/pbft/src/client.rs", "KeyDirectory::generate(4, 1);"),
        (mac_only_normal_case, "crates/pbft/src/messages.rs", "    pub struct PrepareMsg {\n        pub sig: Signature,\n    }"),
        (mac_only_normal_case, "tests/full_stack.rs", "struct PreparedProof;"),
        (replica_shape, "crates/pbft/src/replica/pq.rs", &long_part),
        (replica_shape, "crates/pbft/src/replica/io.rs", "let env = ExecEnv::new(clock, rng);"),
        (replica_shape, "crates/pbft/src/replica/agreement.rs", "io.set_timer(d, TOKEN_VIEW_CHANGE);"),
        (replica_shape, "crates/pbft/src/replica/router.rs", "io.cancel_timer(t);"),
        (one_campaign_harness, "crates/core/src/lib.rs", "impl<S> ChaosHarness for Mine<S> {}"),
        (one_campaign_harness, "examples/quickstart.rs", "// KvChaosHarness"),
        (one_vocabulary, "crates/simnet/src/sim.rs", "// a NullSink comeback"),
        (one_vocabulary, "scripts/tier1.sh", "# pipeline_depth"),
        (one_caller, "src/lib.rs", "// PosixDriver"),
        (one_adoption, "crates/pbft/src/replica/checkpoint.rs", "let own_quorum = true;"),
        (one_adoption, "crates/pbft/src/replica/router.rs", "if self.fetch.is_none() {\n    self.rec.probe(&mut io);\n}"),
        (one_placement, "tests/full_stack.rs", "cfg.shard = 1;"),
        (one_placement, "crates/core/src/shard.rs", "let tag = SHARD_ENVELOPE_TAG;"),
        (one_decode_path, "crates/pbft/src/client.rs", "let msg = Message::from_wire(payload);"),
        (one_event_reading, "crates/simnet/src/chaos.rs", "ProtocolEvent::RecoveryStarted => {}"),
        (one_event_reading, "crates/pbft/src/chaos.rs", "pub const CAMPAIGN_BOUNDS: u8 = 0;"),
        (one_event_reading, "crates/simnet/src/trace.rs", "Trace::ring(RUN_TRACE_CAP);"),
        (one_test_double, "crates/bench/src/lab.rs", "struct CrashCounting;"),
        (one_test_double, "crates/simnet/src/ddmin.rs", "struct CrashThreshold;"),
        (one_test_double, "crates/pbft/src/testing.rs", "pub struct RemoteCheckpoint;"),
        (one_test_double, "crates/simnet/src/ddmin.rs", "struct Pinger;"),
        (one_test_double, "crates/simnet/src/ddmin.rs", "struct PingHarness;"),
        (one_fetch_window, "crates/pbft/src/transfer.rs", "pub const FETCH_WINDOW_MAX: usize = 16;"),
        (one_fetch_window, "crates/core/src/service.rs", "    record_seqs: HashMap<u64, BTreeSet<u64>>,"),
        (fixed_timers, "crates/simnet/src/lib.rs", "pub use rtt::RttEstimator;"),
        (fixed_timers, "crates/pbft/src/config.rs", "pub const CLIENT_RTO_INITIAL: SimDuration = RTO;"),
        (one_context, "crates/simnet/src/sim.rs", "let mut ctx = Context {"),
        (one_context, "scripts/tier1.sh", "# invoke_with_lag"),
        (one_context, "crates/pbft/src/replica/mod.rs", "    struct Installs {"),
        (one_context, "crates/pbft/tests/unit_pipeline.rs", "struct Recorder {"),
        (one_outbound_filter, "crates/pbft/src/replica/agreement.rs", "if *io.byz == ByzMode::WithholdCommits {"),
        (one_outbound_filter, "crates/pbft/src/replica/execution.rs", "let flip = matches!(mode, ByzMode::CorruptReplies);"),
        (one_outbound_filter, "crates/pbft/src/replica/checkpoint.rs", "// CorruptCheckpoints stores a bogus digest"),
        (one_outbound_filter, "crates/pbft/src/replica/router.rs", "ByzMode::EquivocatePrimary | ByzMode::BadTimestamps => {}"),
        (one_outbound_filter, "crates/pbft/src/replica/agreement.rs", "fn equivocate(io: &mut Io<'_, '_>, pp: &PrePrepareMsg) {}"),
        (tags_over_headers, "crates/pbft/src/replica/agreement.rs", "let d = prepare.with_signed_bytes(Digest::of);"),
        (tags_over_headers, "crates/pbft/tests/unit_pipeline.rs", "p.auth = Authenticator::generate(&keys, N, &Digest::of(&p.signed_bytes()));"),
        (tags_over_headers, "crates/pbft/src/messages.rs", "impl ReplyMsg {\n    pub fn digest(&self) -> Digest {\n        self.with_signed_bytes(Digest::of)\n    }\n}"),
        (keys_without_a_lock, "crates/crypto/src/sig.rs", "use std::sync::{Arc, RwLock};"),
        (keys_without_a_lock, "crates/crypto/src/keys.rs", "let t = self.dir.lock().expect(\"key directory poisoned\");"),
        (keys_without_a_lock, "crates/crypto/src/sig.rs", "    session: Vec<Option<SessionKey>>,"),
        (one_reading_of_a_slot, "crates/pbft/src/log.rs", "pub struct SeqEntry {\n    stage: Option<SlotStage>,\n}"),
        (one_reading_of_a_slot, "crates/pbft/src/log.rs", "pub struct SeqEntry {\n    pub commit_sent: bool,\n}"),
        (one_reading_of_a_slot, "crates/pbft/src/log.rs", "pub struct SeqEntry {\n    pub executed: bool,\n}"),
        (one_reading_of_a_slot, "crates/pbft/src/log.rs", "pub struct Log {\n    live: usize,\n}"),
        (one_reading_of_a_slot, "crates/pbft/src/replica/checkpoint.rs", "pub(super) struct Checkpoints {\n    stable_seq: u64,\n}"),
        (one_reading_of_a_slot, "crates/pbft/src/replica/view_change.rs", "pub(super) struct ViewChange {\n    last_new_view: u64,\n}"),
        (one_reading_of_a_slot, "crates/pbft/src/log.rs", "    pub fn observe(&mut self, stage: SlotStage) {}"),
        (one_reading_of_a_slot, "crates/pbft/src/replica/agreement.rs", "fn restage(log: &mut Log, view: u64) {}"),
        (one_reading_of_a_slot, "crates/pbft/src/replica/router.rs", "    pub fn rewind(&mut self, seq: u64) {}"),
    ];
    for (gate, path, plant) in plants {
        let original = tree()
            .0
            .get(path)
            .unwrap_or_else(|| panic!("{path} is not in the tree"));
        let alone = |text: String| Tree(BTreeMap::from([(path.to_string(), text)]));
        assert!(
            gate(&alone(original.clone())).is_empty(),
            "{path} fails before the plant"
        );
        let hits = gate(&alone(format!("{plant}\n{original}")));
        assert!(
            hits.iter().any(|h| h.path == path),
            "{plant:?} planted in {path} is not reported; the gate reports:{}",
            report(&hits)
        );
    }
}

#[test]
fn has_word_matches_as_grep_w_does() {
    assert!(has_word("let shard = cfg.shard;", "cfg.shard"));
    assert!(!has_word("let shard = mycfg.shard;", "cfg.shard"));
    assert!(!has_word("cfg.shards", "cfg.shard"));
    assert!(has_word("fn with_shard(", "with_shard"));
    assert!(!has_word(
        "fn generated_campaign_with_sharded_group()",
        "with_shard"
    ));
    assert!(
        has_word("with_sharded, with_shard", "with_shard"),
        "a later occurrence counts"
    );
    assert!(has_word("if fetch.is_none()", "fetch"));
    assert!(!has_word("self.fetches", "fetch"));
}

#[test]
fn impls_chaos_harness_matches_the_ci_pattern() {
    assert!(impls_chaos_harness("impl ChaosHarness for Mine {"));
    assert!(impls_chaos_harness(
        "impl<W: Workload> ChaosHarness for ServiceCampaign<W> {"
    ));
    assert!(!impls_chaos_harness("impl Mine {"));
    assert!(!impls_chaos_harness("impl ChaosHarnessExt for Mine {"));
}

/// Whether `src` declares `fn name` as a test: `Some(ignored)` when the
/// attributes and doc comments right above it hold `#[test]`, `None` when
/// there is no such test.
fn declared(src: &str, name: &str) -> Option<bool> {
    let lines: Vec<&str> = src.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.trim_start().starts_with(&format!("fn {name}(")))?;
    let above: Vec<&str> = lines[..at]
        .iter()
        .rev()
        .map(|l| l.trim())
        .take_while(|l| l.starts_with("#[") || l.starts_with("//"))
        .collect();
    above
        .contains(&"#[test]")
        .then(|| above.iter().any(|l| l.starts_with("#[ignore")))
}

#[test]
fn declared_reads_doc_comments_ignores_and_proptest_blocks() {
    let src = "/// Doc.\n#[test]\nfn plain() {}\n\
               #[test]\n#[ignore = \"ROADMAP item 13\"]\nfn skipped() {}\n\
               proptest! {\n    /// Doc.\n    #[test]\n    fn property(x in 0u8..4) {}\n}\n\
               fn helper() {}\n";
    assert_eq!(declared(src, "plain"), Some(false));
    assert_eq!(declared(src, "skipped"), Some(true));
    assert_eq!(declared(src, "property"), Some(false));
    assert_eq!(declared(src, "helper"), None);
    assert_eq!(declared(src, "gone"), None);
}

/// Tests that DESIGN.md or CI's "Exact counts" step name, by file:
/// `(file, test, ignored)`.
#[rustfmt::skip]
const NAMED: [(&str, &str, bool); 78] = [
    // Exact counts, printed by CI with `--nocapture`.
    ("crates/core/tests/alloc_budget.rs", "a_write_and_a_read_stay_within_their_allocation_budget", false),
    ("crates/pbft/tests/queue_gauge.rs", "pending_events_track_live_work_not_dead_timers", false),
    ("crates/core/tests/crypto_census.rs", "a_write_makes_no_signature_and_24_replica_tags", false),
    // One MAC: the two SHA-256 paths agree, SipHash-2-4 and the authenticator layout.
    ("crates/crypto/src/sha256.rs", "detected_compress_path", false),
    ("crates/crypto/src/siphash.rs", "reference_vectors", false),
    ("crates/crypto/src/siphash.rs", "agrees_with_std", false),
    ("crates/crypto/tests/proptest_crypto.rs", "authenticator_layout_is_invisible", false),
    ("crates/crypto/tests/proptest_crypto.rs", "an_authenticator_is_at_most_forty_bytes", false),
    ("crates/crypto/tests/proptest_crypto.rs", "hostile_tag_counts_are_rejected", false),
    // One wire declaration: every sample pins `(len, sha256)` of its bytes.
    ("crates/pbft/src/messages.rs", "all_message_kinds_round_trip", false),
    ("crates/nfs/src/ops.rs", "ops_round_trip", false),
    ("crates/nfs/src/ops.rs", "replies_round_trip", false),
    ("crates/nfs/src/spec.rs", "objects_round_trip", false),
    ("crates/oodb/tests/unit_edges.rs", "op_and_reply_wire_roundtrip", false),
    // Dense message path: each dense structure against the container it replaced.
    ("crates/simnet/src/event.rs", "pops_what_a_heap_with_tombstones_pops", false),
    ("crates/pbft/src/log.rs", "ring_agrees_with_the_trees_it_replaces", false),
    ("crates/pbft/src/client.rs", "steady_replicas_tally_as_the_maps_did", false),
    ("crates/pbft/src/client.rs", "fickle_replicas_are_counted_once_and_never_overcounted", false),
    ("crates/pbft/src/client.rs", "a_malformed_digest_conflicts_but_never_completes", false),
    // One fault model: the fault table, the group partition and deterministic replay.
    ("crates/simnet/src/faults.rs", "isolate_drops_both_directions", false),
    ("crates/simnet/src/faults.rs", "bit_flipper_changes_payload", false),
    ("crates/simnet/src/faults.rs", "tagged_dropper_matches_discriminant_only", false),
    ("crates/simnet/src/faults.rs", "tagged_flipper_preserves_discriminant", false),
    ("crates/simnet/src/faults.rs", "slow_duplicate_and_drop_act_as_declared", false),
    ("crates/simnet/src/faults.rs", "active_window_gates_inner_filter", false),
    ("crates/simnet/src/faults.rs", "until_window_is_active_from_start", false),
    ("crates/simnet/src/faults.rs", "chain_applies_first_match", false),
    ("crates/simnet/src/faults.rs", "loopback_is_never_touched", false),
    ("crates/simnet/src/faults.rs", "knobs_write_back_onto_the_grid", false),
    ("crates/simnet/src/config.rs", "per_link_override_wins", false),
    ("crates/simnet/src/chaos.rs", "a_group_partition_keeps_its_members_connected", false),
    ("crates/simnet/tests/proptest_chaos.rs", "replay_is_deterministic", false),
    // One deployment: the layout rule and the one-shard equivalence.
    ("crates/pbft/src/deploy.rs", "four_replicas_and_two_clients_follow_the_layout_rule", false),
    ("crates/pbft/src/deploy.rs", "a_node_added_between_two_replicas_fails_the_layout_assertion", false),
    ("crates/pbft/src/replica/mod.rs", "a_request_naming_a_replica_as_its_client_is_refused", false),
    ("crates/core/tests/shard_equivalence.rs", "one_shard_is_byte_identical_to_unsharded", false),
    // MAC-only normal case: the new-view decision procedure.
    ("crates/pbft/tests/proptest_view_change.rs", "decision_keeps_committed_batches_and_invents_none", false),
    // One campaign harness: the auditor table, the status dump and the pinned divergence.
    ("crates/pbft/src/chaos.rs", "agreement_auditors_fire_on_the_one_field_that_disagrees", false),
    ("crates/bench/tests/chaos_nfs.rs", "failing_runs_end_with_every_replica_status", false),
    ("crates/core/tests/chaos_shard.rs", "storm_seed_one_leaves_shard_zero_one_digest_per_checkpoint", true),
    // One vocabulary.
    ("crates/simnet/src/tracediff.rs", "every_variant_round_trips_with_name_intact", false),
    ("crates/simnet/src/sim.rs", "emit_without_a_trace_records_nothing", false),
    // One caller.
    ("crates/nfs/tests/replicated.rs", "heterogeneous_replicas_answer_like_the_direct_server", false),
    // One adoption.
    ("crates/pbft/tests/chaos_campaign.rs", "recovery_started_while_partitioned_completes", false),
    ("crates/pbft/src/replica/checkpoint.rs", "adoption_collects_garbage", false),
    // One placement: the sender rule of replica and client.
    ("crates/core/tests/shard_placement.rs", "another_groups_replica_is_refused_before_decoding", false),
    ("crates/core/tests/shard_placement.rs", "a_tag_keyed_fault_reaches_every_group", false),
    ("crates/pbft/tests/unit_client.rs", "replies_from_outside_the_group_are_ignored_unread", false),
    // One decode path: what holds a frame, hostile frames, digests hashed in place.
    ("crates/pbft/tests/frame_retention.rs", "a_frame_is_let_go_when_its_slot_is_collected_and_a_reply_frame_at_completion", false),
    ("crates/pbft/tests/proptest_messages.rs", "a_cut_or_dirty_operation_is_refused", false),
    ("crates/pbft/src/tree.rs", "in_place_digests_hash_the_encoded_input", false),
    // One event reading: each auditor clause on its own violation.
    ("crates/simnet/tests/auditors.rs", "each_auditor_clause_fires_once_on_its_own_violation", false),
    ("crates/simnet/tests/auditors.rs", "a_clean_run_fires_no_auditor", false),
    // A client holds what is outstanding: the queue's and the results' capacity rules.
    ("crates/pbft/src/client.rs", "a_draining_queue_gives_back_what_it_sent", false),
    ("crates/pbft/src/client.rs", "a_queue_at_a_steady_length_keeps_its_allocation", false),
    ("crates/pbft/src/client.rs", "a_completed_burst_holds_no_more_results_than_it_queued", false),
    ("crates/pbft/src/client.rs", "results_of_ops_invoked_one_at_a_time_grow_by_doubling", false),
    // Fixed timers: the client's retry schedule, read off the trace, and
    // the view's progress timer and installed timeout at `RTO`.
    ("crates/pbft/tests/unit_client.rs", "retransmissions_back_off_from_the_rto_and_a_clean_completion_resets_it", false),
    ("crates/pbft/tests/unit_client.rs", "retry_waits_double_from_the_rto_and_stop_at_the_ceiling", false),
    ("crates/pbft/tests/unit_client.rs", "every_wait_lies_between_the_rto_and_the_jittered_ceiling", false),
    ("crates/pbft/tests/unit_client.rs", "identical_runs_retransmit_identically", false),
    ("crates/pbft/src/replica/mod.rs", "a_backup_arms_the_progress_timer_at_the_rto_before_and_after_rounds", false),
    ("crates/pbft/src/replica/view_change.rs", "installing_a_new_view_resets_the_timeout_to_the_rto", false),
    // One context: a step by hand is the simulator's step, and a warm
    // effects buffer allocates nothing per step.
    ("crates/simnet/src/sim.rs", "a_step_by_hand_is_the_step_the_simulation_takes", false),
    ("crates/pbft/tests/unit_pipeline.rs", "read_only_deferred_across_commit_gap", false),
    // One outbound filter: a shaping mode changes only the wire, so a
    // healed shaping replica is audited like any honest one.
    ("crates/pbft/src/replica/mod.rs", "a_shaping_mode_changes_only_the_wire", false),
    ("crates/pbft/src/chaos.rs", "a_healed_shaping_replica_is_clean_and_a_corrupted_one_is_not", false),
    // Tags over headers: every header field is covered, and the kernel
    // and the authenticator take input of any length.
    ("crates/pbft/src/messages.rs", "a_prepare_tag_rejects_any_other_header", false),
    ("crates/crypto/src/siphash.rs", "agrees_with_std_at_every_length", false),
    ("crates/crypto/tests/proptest_crypto.rs", "authenticator_sound_and_complete", false),
    ("crates/crypto/tests/proptest_crypto.rs", "point_tag_binds_every_byte", false),
    // Keys without a lock: the table is the definition after any refreshes,
    // and holds its n² keys from the start.
    ("crates/crypto/tests/proptest_crypto.rs", "every_key_is_the_definition_after_any_refreshes", false),
    ("crates/crypto/src/sig.rs", "an_id_off_the_frame_has_no_key_and_grows_nothing", false),
    ("crates/crypto/src/sig.rs", "cached_sign_key_matches_the_definition", false),
    // One reading of a slot: the stage read off the messages in the
    // installed view, and the one status line where it differs from the
    // stored index it replaced.
    ("crates/pbft/src/log.rs", "slot_table_stage_never_downgrades", false),
    ("crates/pbft/src/replica/mod.rs", "a_backup_that_does_not_endorse_a_prepared_slot_reports_it_prepared", false),
    ("crates/pbft/src/replica/mod.rs", "a_read_during_a_view_change_waits_for_the_installed_views_backlog", false),
    // Exact allocation counts: a seeded NFS run allocates the same twice.
    ("crates/bench/tests/nfs_alloc_repeat.rs", "a_seeded_nfs_run_allocates_the_same_twice", false),
];

#[test]
fn named_tests_are_declared() {
    let wrong: Vec<String> = NAMED
        .iter()
        .filter_map(|&(file, name, ignored)| {
            let found = tree().0.get(file).and_then(|src| declared(src, name));
            (found != Some(ignored)).then(|| match found {
                None => format!("\n  {file}: no #[test] fn {name}"),
                Some(_) => format!("\n  {file}: {name} should be ignored: {ignored}"),
            })
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "a test the docs name is gone or changed:{}",
        wrong.concat()
    );
}

/// What a CI workflow does that belongs in this file: a step that greps
/// `crates/`, `src/` or `tests/`, or a `cargo test` given anything but
/// `-q`, `--release` and `--manifest-path` outside the "Exact counts"
/// step, one per offending command.
fn ci_findings(ci: &str) -> Vec<String> {
    let mut commands = Vec::new();
    let mut step = "";
    let mut pending = String::new();
    for line in ci.lines().map(str::trim).filter(|l| !l.starts_with('#')) {
        if let Some(name) = line.strip_prefix("- name:") {
            step = name.trim();
        }
        pending.push_str(line.strip_suffix('\\').unwrap_or(line));
        if !line.ends_with('\\') {
            commands.push((step, std::mem::take(&mut pending)));
        }
    }
    let mut findings = Vec::new();
    for (step, command) in commands {
        let roots = ["crates/", "src/", "tests/"];
        if command.contains("grep") && roots.iter().any(|root| command.contains(root)) {
            findings.push(format!("\n  {step}: greps the sources: {command}"));
        }
        let filtered = command.split_once("cargo test").is_some_and(|(_, args)| {
            let mut args = args
                .split_whitespace()
                .take_while(|a| !["|", "&&", "||", ";"].contains(a));
            while let Some(arg) = args.next() {
                match arg {
                    "-q" | "--release" => {}
                    "--manifest-path" => _ = args.next(),
                    _ => return true,
                }
            }
            false
        });
        if filtered && step != "Exact counts" {
            findings.push(format!("\n  {step}: runs tests by name: {command}"));
        }
    }
    findings
}

/// CI runs tier-1, prints the exact counts and builds without warnings; a
/// rule that needs a grep over the sources is a gate in this file, and a
/// test tier-1 already runs is not run again by name.
#[test]
fn ci_runs_no_gate_of_its_own() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows/ci.yml");
    let ci = fs::read_to_string(path).expect("the CI workflow is readable");
    let findings = ci_findings(&ci);
    assert!(
        findings.is_empty(),
        "ci.yml does what tests/design_gates.rs is for:{}",
        findings.concat()
    );
}

#[test]
fn ci_findings_flag_source_greps_and_by_name_runs() {
    let ci = r#"
      - name: Tier-1 gate
        run: bash scripts/tier1.sh
      - name: Exact counts
        run: cargo test --release -p base --test alloc_budget -- --nocapture
      - name: One path gate
        run: |
          # grep crates/ in a comment is fine
          if grep -rn "coded_transfer" \
            crates/ examples/; then exit 1; fi
          cargo test -p base-pbft --lib -- deploy::tests \
            | grep -q "1 passed"
      - name: Benchmark crate tests
        run: cargo test --release --manifest-path benchmark/Cargo.toml
"#;
    let findings = ci_findings(ci);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings[0].contains("One path gate: greps the sources"));
    assert!(findings[1].contains("One path gate: runs tests by name"));
}
