//! Persistent on-disk summary store for incremental analysis.
//!
//! One store directory holds one file, `safeflow-store.bin`, a versioned,
//! checksummed, hand-rolled binary image with two tables:
//!
//! * **Replay manifests** — whole-program entries keyed by a hash over the
//!   store version, the analysis configuration, the root file name, and
//!   every input file's name + content hash. An exact match means *nothing*
//!   changed, so the session replays the stored report (the report
//!   document's `report` subtree, exit code, `Counter`-class metrics,
//!   schema id) without parsing a single file — zero SCCs re-analyzed.
//!   The text report is one more view of that subtree, drawn on replay.
//! * **SCC summaries** — the last clean run's [`crate::engine::SccTable`]:
//!   per-SCC function-summary vectors keyed by the engine's Merkle content
//!   hashes ([`crate::engine::scc_hashes`]). [`SummaryStore::open`] checks
//!   the whole file's checksum and decodes the manifests alone; it keeps
//!   this section encoded, with its declared entry count. A replay never
//!   reads it. The session's first analyzed check decodes it
//!   ([`SummaryStore::decode_sccs`]) into its prior table; when some inputs
//!   changed, unchanged SCCs hit and the dirty region (the edited SCCs
//!   plus their transitive dependents, whose chained hashes moved)
//!   recomputes. From then on the store keeps only the table's keys, for
//!   the load and invalidation counts.
//!
//! The invalidation rule is entirely carried by the keys: an edit changes a
//! content hash, the stale entry simply never matches again and is dropped
//! at the next save. Staleness is therefore impossible by construction;
//! the failure mode of a damaged store is a **cold run**, never a wrong
//! one. The reader is fully defensive: a bad magic, version, checksum, or
//! any truncated/overlong field makes [`SummaryStore::open`] come up
//! empty (and report `load_rejected`); an SCC section that passes the
//! checksum but fails to decode does the same at
//! [`SummaryStore::decode_sccs`], dropping the manifests read with it.
//! *Writing* problems surface as [`AnalysisError::Store`].
//!
//! Degraded results (contained panics, exhausted budgets, injected faults)
//! are never written: a tainted SCC never enters the summary engine's
//! table, and the session skips the save for any run whose exit code
//! signals degradation.

use crate::engine::SccTable;
use crate::summary::Summary;
use crate::AnalysisError;
use safeflow_util::hash::{inputs_digest, StableHasher};
use std::collections::{BTreeMap, HashSet};
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::Arc;

// Binary encoding helpers live in `safeflow_util::wire` (shared with the
// `safeflow serve` protocol); re-exported here for the summary codec.
pub(crate) use safeflow_util::wire::{put_str, put_u32, put_u64, put_u8, ByteReader};

/// Store format version; bumped on any encoding change. A file with a
/// different version is ignored wholesale (everything invalidates).
/// v2: label-lattice policies — summary facts carry relabel masks,
/// replay manifests carry the report schema, and the config hash covers
/// the normalized policy and critical-call clearances.
/// v3: replay manifests keep the report subtree alone; the text report is
/// rendered from it.
/// v4: the word-at-a-time stable hash replaces FNV-1a, so every content
/// key, manifest key and the file checksum changed; the layout did not.
/// v5: one finding rule labels a site by the join of every label reaching
/// it, so stored labeled reports may name other labels; the layout did
/// not change.
/// v6: the context-sensitive engine walks each body in the summary engine's
/// order, so its stored manifests carry other `contexts_analyzed` values
/// and `taint.*` counters; the layout did not change.
/// v7: a declassified read carries its declassifier's target label even
/// when the target is not below the region's label (the summary engine
/// used to meet the two), so stored summaries and manifests of such
/// programs are wrong; the layout did not change.
pub const STORE_VERSION: u32 = 7;

const MAGIC: &[u8; 8] = b"SFSTORE\0";
const STORE_FILE: &str = "safeflow-store.bin";
const LOCK_FILE: &str = "safeflow-store.lock";

/// Caps on table sizes, enforced on save so one store directory cannot
/// grow without bound across alternating roots/configs.
const MAX_MANIFESTS: usize = 64;

/// A whole-program replay entry: everything needed to reproduce a cold
/// run's user-visible output without re-analyzing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ReplayEntry {
    /// The run's exit code (always `< 3`: degraded runs are not stored).
    pub exit_code: u8,
    /// The run's `Counter`-class metrics — cache-state-invariant by
    /// definition, so replaying them verbatim preserves the warm/cold
    /// metrics contract.
    pub counters: BTreeMap<String, u64>,
    /// The rendered `report` subtree of the report document; replay draws
    /// the text report from it too.
    pub report_json: String,
    /// The schema identifier of the stored document (`safeflow-report-v1`
    /// or `safeflow-report-v2`): per program, not per config — annotations
    /// can declare labels — so replay must restore it verbatim.
    pub schema: String,
}

/// Statistics from the most recent [`SummaryStore::save`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SaveStats {
    /// SCC entries written.
    pub sccs_saved: usize,
    /// Previously loaded SCC entries dropped because no longer live.
    pub sccs_invalidated: usize,
}

/// The replay manifests of a store, by manifest key.
type Manifests = Vec<(u64, ReplayEntry)>;

/// The SCC table of the store file, kept encoded until a check needs it.
#[derive(Debug)]
enum StoredSccs {
    /// As read: the file's bytes, the offset of the first entry in them and
    /// the entry count the file declares (checked against its length).
    Encoded { file: Vec<u8>, start: usize, count: usize },
    /// Decoded or written: the table's keys.
    Keys(Vec<u64>),
}

/// The persistent store bound to one directory.
#[derive(Debug)]
pub(crate) struct SummaryStore {
    path: PathBuf,
    manifests: Manifests,
    /// The SCC table on disk.
    sccs: StoredSccs,
    /// `true` when a store file existed but failed validation (bad magic /
    /// version / checksum / truncation) and was ignored.
    load_rejected: bool,
    /// Advisory writer lock on the directory, held for the store's
    /// lifetime (released by the OS on drop *and* on process death, so a
    /// SIGKILLed daemon never leaves a stale lock). `None` means another
    /// live process holds it — this store is detached.
    lock: Option<std::fs::File>,
}

impl SummaryStore {
    /// Opens (or initializes) the store in `dir`, creating the directory
    /// if needed. A present-but-invalid store file is ignored — the
    /// session degrades to a cold run — and only *directory creation*
    /// failures are errors.
    ///
    /// An exclusive advisory lock is taken on `dir`'s lock file before
    /// reading. If another live process (a resident `safeflow serve`
    /// daemon, a concurrent `check`) already holds it, the store comes up
    /// **detached**: empty tables, [`SummaryStore::lock_busy`] set, and
    /// every save a no-op — the caller degrades to a cold run instead of
    /// racing the writer.
    ///
    /// The SCC table stays encoded until [`SummaryStore::decode_sccs`].
    pub(crate) fn open(dir: &Path) -> Result<SummaryStore, AnalysisError> {
        std::fs::create_dir_all(dir).map_err(|e| AnalysisError::Store {
            context: format!("creating store directory `{}`", dir.display()),
            source: Some(e),
        })?;
        let path = dir.join(STORE_FILE);
        let lock = acquire_lock(&dir.join(LOCK_FILE));
        let mut store = SummaryStore {
            path,
            manifests: Vec::new(),
            sccs: StoredSccs::Keys(Vec::new()),
            load_rejected: false,
            lock,
        };
        if store.lock_busy() {
            // A concurrent writer owns the directory: do not even read the
            // file (a torn read is impossible — writes are atomic renames —
            // but replaying while the owner invalidates is still a
            // coherence hazard). Detached = cold.
            return Ok(store);
        }
        match std::fs::read(&store.path) {
            Ok(file) => match decode_manifests(&file) {
                Some((manifests, start, count)) => {
                    store.manifests = manifests;
                    store.sccs = StoredSccs::Encoded { file, start, count };
                }
                None => store.load_rejected = true,
            },
            // No file yet: a fresh store. Any other read error also
            // degrades to cold rather than failing the run.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(_) => store.load_rejected = true,
        }
        Ok(store)
    }

    /// Decodes the SCC table that [`SummaryStore::open`] kept encoded, on
    /// the first call; `None` on every later one, and when there was
    /// nothing to decode. A table that fails to decode rejects the whole
    /// file, as a damaged file does at open: the store reports
    /// `load_rejected`, drops the manifests it read and hands back an empty
    /// table.
    pub(crate) fn decode_sccs(&mut self) -> Option<SccTable> {
        let StoredSccs::Encoded { file, start, count } = &self.sccs else {
            return None;
        };
        let table =
            decode_scc_entries(&file[*start..file.len() - 8], *count).unwrap_or_else(|| {
                self.load_rejected = true;
                self.manifests.clear();
                SccTable::new()
            });
        self.sccs = StoredSccs::Keys(table.iter().map(|(k, _)| *k).collect());
        Some(table)
    }

    /// Whether an existing store file was ignored as invalid.
    pub(crate) fn load_rejected(&self) -> bool {
        self.load_rejected
    }

    /// Whether another live process held the directory lock at open time
    /// (this store is detached: reads came up empty, saves are no-ops).
    pub(crate) fn lock_busy(&self) -> bool {
        self.lock.is_none()
    }

    /// Number of SCC entries on disk (as the file declares them while
    /// the table is still encoded).
    pub(crate) fn scc_count(&self) -> usize {
        match &self.sccs {
            StoredSccs::Encoded { count, .. } => *count,
            StoredSccs::Keys(keys) => keys.len(),
        }
    }

    /// The replay entry under `key`, if any.
    pub(crate) fn manifest(&self, key: u64) -> Option<&ReplayEntry> {
        self.manifests.iter().find(|(k, _)| *k == key).map(|(_, e)| e)
    }

    /// Records a finished clean run and writes the store file atomically
    /// (temp file + rename). `sccs` is the run's summary table — it
    /// *replaces* the SCC table, dropping entries the run no longer reaches
    /// (the invalidation count in the returned stats). A table still
    /// encoded is decoded first, for its keys; a session has always done
    /// that on the check it saves.
    pub(crate) fn save(
        &mut self,
        manifest_key: u64,
        entry: ReplayEntry,
        sccs: &SccTable,
    ) -> Result<SaveStats, AnalysisError> {
        if self.lock_busy() {
            // Detached store: another live process owns the directory.
            // Persisting here would race its atomic rename; skip silently
            // (the caller's run was cold anyway).
            return Ok(SaveStats::default());
        }
        self.decode_sccs();
        let old_keys: &[u64] = match &self.sccs {
            StoredSccs::Keys(keys) => keys,
            StoredSccs::Encoded { .. } => &[],
        };
        let live: HashSet<u64> = sccs.iter().map(|(k, _)| *k).collect();
        let stats = SaveStats {
            sccs_saved: sccs.len(),
            sccs_invalidated: old_keys.iter().filter(|k| !live.contains(k)).count(),
        };
        self.manifests.retain(|(k, _)| *k != manifest_key);
        self.manifests.push((manifest_key, entry));
        if self.manifests.len() > MAX_MANIFESTS {
            let excess = self.manifests.len() - MAX_MANIFESTS;
            self.manifests.drain(..excess);
        }
        self.sccs = StoredSccs::Keys(sccs.iter().map(|(k, _)| *k).collect());

        let bytes = encode_store(&self.manifests, sccs);
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, &bytes).map_err(|e| AnalysisError::Store {
            context: format!("writing `{}`", tmp.display()),
            source: Some(e),
        })?;
        std::fs::rename(&tmp, &self.path).map_err(|e| AnalysisError::Store {
            context: format!("renaming into `{}`", self.path.display()),
            source: Some(e),
        })?;
        Ok(stats)
    }
}

/// Tries to take an exclusive advisory lock on `path` without blocking.
///
/// `Some(file)` = this process owns the store directory until the handle
/// drops. `None` = another live process holds the lock (a daemon or a
/// concurrent `check`); the caller must treat the store as detached.
/// Filesystems without lock support fall back to "acquired": the lock is
/// a coherence optimization, and the checksummed reader plus atomic
/// renames already make torn reads impossible.
fn acquire_lock(path: &Path) -> Option<std::fs::File> {
    let file = std::fs::OpenOptions::new().create(true).append(true).open(path).ok()?;
    match file.try_lock() {
        Ok(()) => Some(file),
        Err(std::fs::TryLockError::WouldBlock) => None,
        // Unsupported filesystem etc.: proceed unlocked (best effort).
        Err(std::fs::TryLockError::Error(_)) => Some(file),
    }
}

// ------------------------------------------------------------------ keys

/// Hash of every configuration knob that can change analysis *results*.
/// `jobs` is deliberately excluded (reports are identical for every worker
/// count — the byte-identity contract), as is `fault_plan` — the session
/// disables the store entirely when a plan is armed, because injected
/// faults make results non-reproducible. `budget.deadline_ms` is also
/// excluded: a deadline can only *degrade* a run, degraded runs are never
/// persisted, so every stored entry is identical to the unlimited-deadline
/// result — and `safeflow serve` varies the deadline per request, which
/// must not defeat warm replay.
pub(crate) fn config_hash(config: &crate::AnalysisConfig) -> u64 {
    let mut h = StableHasher::new();
    h.write_u32(STORE_VERSION);
    h.write_u8(match config.engine {
        crate::Engine::ContextSensitive => 0,
        crate::Engine::Summary => 1,
    });
    crate::engine::hash_summary_config(&mut h, config);
    h.write_usize(config.max_contexts);
    let b = &config.budget;
    h.write_u64(b.solver_steps.map(|v| v + 1).unwrap_or(0));
    h.write_u64(b.fixpoint_rounds.map(|v| v as u64 + 1).unwrap_or(0));
    h.write_u64(b.max_function_insts.map(|v| v as u64 + 1).unwrap_or(0));
    // b.deadline_ms deliberately not hashed — see the doc comment.
    h.finish()
}

/// Whole-program replay key: configuration + root + every input file's
/// name and content, borrowed as `(name, text)` pairs in any order (see
/// [`inputs_digest`]).
pub(crate) fn manifest_key<'a>(
    config_hash: u64,
    root: &str,
    files: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(config_hash);
    h.write_str(root);
    h.write_u64(inputs_digest(files));
    h.finish()
}

// --------------------------------------------------------------- encoding

fn encode_store(manifests: &[(u64, ReplayEntry)], sccs: &SccTable) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, STORE_VERSION);
    put_u32(&mut out, manifests.len() as u32);
    for (key, e) in manifests {
        put_u64(&mut out, *key);
        put_u8(&mut out, e.exit_code);
        put_u32(&mut out, e.counters.len() as u32);
        for (k, v) in &e.counters {
            put_str(&mut out, k);
            put_u64(&mut out, *v);
        }
        put_str(&mut out, &e.report_json);
        put_str(&mut out, &e.schema);
    }
    put_u32(&mut out, sccs.len() as u32);
    for (key, summaries) in sccs {
        put_u64(&mut out, *key);
        put_u32(&mut out, summaries.len() as u32);
        for s in summaries.iter() {
            s.encode(&mut out);
        }
    }
    let checksum = safeflow_util::hash::hash_bytes(&out);
    put_u64(&mut out, checksum);
    out
}

/// Checks the file's checksum, magic and version and decodes its replay
/// manifests. Returns them with the offset of the first SCC entry in
/// `bytes` and the SCC entry count, which is checked only against the
/// bytes left; [`decode_scc_entries`] reads the entries.
fn decode_manifests(bytes: &[u8]) -> Option<(Manifests, usize, usize)> {
    // Checksum covers everything before the trailing 8 bytes.
    if bytes.len() < MAGIC.len() + 8 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if safeflow_util::hash::hash_bytes(body) != stored {
        return None;
    }
    let mut r = ByteReader::new(body);
    if r.take(MAGIC.len())? != MAGIC {
        return None;
    }
    if r.u32()? != STORE_VERSION {
        return None;
    }
    let mut manifests = Vec::new();
    for _ in 0..r.seq_len()? {
        let key = r.u64()?;
        let exit_code = r.u8()?;
        let mut counters = BTreeMap::new();
        for _ in 0..r.seq_len()? {
            let k = r.str()?;
            let v = r.u64()?;
            counters.insert(k, v);
        }
        let report_json = r.str()?;
        let schema = r.str()?;
        manifests.push((key, ReplayEntry { exit_code, counters, report_json, schema }));
    }
    let count = r.seq_len()?;
    Some((manifests, r.position(), count))
}

/// Decodes `count` SCC entries, which must fill `bytes` exactly.
fn decode_scc_entries(bytes: &[u8], count: usize) -> Option<SccTable> {
    let mut r = ByteReader::new(bytes);
    let mut sccs = Vec::with_capacity(count);
    for _ in 0..count {
        let key = r.u64()?;
        let members = r.seq_len()?;
        let mut vec = Vec::with_capacity(members);
        for _ in 0..members {
            vec.push(Summary::decode(&mut r)?);
        }
        sccs.push((key, Arc::new(vec)));
    }
    // Trailing garbage rejects the table.
    r.done().then_some(sccs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisConfig;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("safeflow-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_entry() -> ReplayEntry {
        let mut counters = BTreeMap::new();
        counters.insert("report.errors".to_string(), 2);
        ReplayEntry {
            exit_code: 2,
            counters,
            report_json: "{\"errors\": []}".to_string(),
            schema: "safeflow-report-v1".to_string(),
        }
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = tmp_dir("roundtrip");
        let mut store = SummaryStore::open(&dir).unwrap();
        assert!(!store.load_rejected());
        assert_eq!(store.manifest(7), None);
        store.save(7, sample_entry(), &Vec::new()).unwrap();
        drop(store); // release the writer lock before reopening

        let store2 = SummaryStore::open(&dir).unwrap();
        assert!(!store2.load_rejected());
        assert_eq!(store2.manifest(7), Some(&sample_entry()));
        assert_eq!(store2.manifest(8), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_truncated_files_are_rejected_not_fatal() {
        let dir = tmp_dir("corrupt");
        let mut store = SummaryStore::open(&dir).unwrap();
        store.save(7, sample_entry(), &Vec::new()).unwrap();
        drop(store); // release the writer lock before reopening
        let path = dir.join(STORE_FILE);
        let good = std::fs::read(&path).unwrap();

        // Flip one byte anywhere: the checksum must catch it.
        for i in [0usize, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[i] ^= 0x5a;
            std::fs::write(&path, &bad).unwrap();
            let s = SummaryStore::open(&dir).unwrap();
            assert!(s.load_rejected(), "flipped byte {i} must reject");
            assert_eq!(s.manifest(7), None);
        }
        // Truncations at every prefix length.
        for cut in [0usize, 3, MAGIC.len(), good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            let s = SummaryStore::open(&dir).unwrap();
            assert!(s.manifest(7).is_none(), "truncation to {cut} bytes must come up empty");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_invalidates_everything() {
        let dir = tmp_dir("version");
        let mut store = SummaryStore::open(&dir).unwrap();
        store.save(7, sample_entry(), &Vec::new()).unwrap();
        drop(store); // release the writer lock before reopening
        let path = dir.join(STORE_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Patch the version field (right after the magic) and re-checksum
        // so only the version differs.
        let v = STORE_VERSION + 1;
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&v.to_le_bytes());
        let body_len = bytes.len() - 8;
        let sum = safeflow_util::hash::hash_bytes(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let s = SummaryStore::open(&dir).unwrap();
        assert!(s.load_rejected());
        assert_eq!(s.manifest(7), None);
        assert_eq!(s.scc_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_replaces_sccs_and_counts_invalidations() {
        let dir = tmp_dir("invalidate");
        let mut store = SummaryStore::open(&dir).unwrap();
        let one = vec![(1u64, Arc::new(vec![Summary::default()]))];
        store.save(7, sample_entry(), &one).unwrap();
        drop(store); // release the writer lock before reopening

        let mut store = SummaryStore::open(&dir).unwrap();
        assert_eq!(store.scc_count(), 1);
        let two = vec![
            (2u64, Arc::new(vec![Summary::default()])),
            (3u64, Arc::new(vec![Summary::default()])),
        ];
        let stats = store.save(8, sample_entry(), &two).unwrap();
        assert_eq!(stats.sccs_saved, 2);
        assert_eq!(stats.sccs_invalidated, 1, "key 1 is no longer live");
        drop(store); // release the writer lock before reopening

        let mut store = SummaryStore::open(&dir).unwrap();
        assert_eq!(store.scc_count(), 2);
        let sccs = store.decode_sccs().expect("the table is decoded once");
        assert_eq!(sccs.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [2, 3]);
        assert!(store.decode_sccs().is_none(), "and only once");
        assert_eq!(store.scc_count(), 2);
        // Both manifests are retained (bounded by MAX_MANIFESTS).
        assert!(store.manifest(7).is_some());
        assert!(store.manifest(8).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An SCC table that passes the checksum but does not decode is
    /// found only when it is decoded: open keeps the manifests and the
    /// declared count, the decode rejects the file and drops them.
    #[test]
    fn malformed_scc_table_is_rejected_when_decoded() {
        let dir = tmp_dir("malformed");
        let mut store = SummaryStore::open(&dir).unwrap();
        let table = vec![(1u64, Arc::new(vec![Summary::default()]))];
        store.save(7, sample_entry(), &table).unwrap();
        drop(store); // release the writer lock before reopening
        let path = dir.join(STORE_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // One byte of trailing garbage after the last entry, re-checksummed.
        let body_len = bytes.len() - 8;
        bytes.truncate(body_len);
        bytes.push(0);
        let sum = safeflow_util::hash::hash_bytes(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let mut store = SummaryStore::open(&dir).unwrap();
        assert!(!store.load_rejected());
        assert_eq!(store.manifest(7), Some(&sample_entry()));
        assert_eq!(store.scc_count(), 1);
        assert!(store.decode_sccs().is_some_and(|t| t.is_empty()));
        assert!(store.load_rejected());
        assert_eq!(store.manifest(7), None);
        assert_eq!(store.scc_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_key_tracks_contents_and_config() {
        let base = config_hash(&AnalysisConfig::default());
        let files = [("a.c", "int x;"), ("b.h", "")];
        let k = manifest_key(base, "a.c", files);
        // Order-insensitive in the file list…
        assert_eq!(k, manifest_key(base, "a.c", files.into_iter().rev()));
        // …but sensitive to contents, names, root, and config.
        assert_ne!(k, manifest_key(base, "a.c", [("a.c", "int y;"), ("b.h", "")]));
        assert_ne!(k, manifest_key(base, "a.c", [("a.c", "int x;"), ("c.h", "")]));
        assert_ne!(k, manifest_key(base, "b.h", files));
        let other = config_hash(&AnalysisConfig::builder().max_contexts(7).build_config());
        assert_ne!(k, manifest_key(other, "a.c", files));
    }

    #[test]
    fn config_hash_ignores_jobs_but_sees_budget() {
        let a = config_hash(&AnalysisConfig::default());
        let b = config_hash(&AnalysisConfig::default().with_jobs(8));
        assert_eq!(a, b, "jobs must not key the store (byte-identity across --jobs)");
        let c = config_hash(
            &AnalysisConfig::default()
                .with_budget(crate::Budget { solver_steps: Some(10), ..Default::default() }),
        );
        assert_ne!(a, c);
    }

    #[test]
    fn config_hash_ignores_deadline() {
        // Per-request deadlines (safeflow serve) can only degrade a run,
        // and degraded runs are never persisted — so two configs differing
        // only in deadline must share stored entries (warm replay).
        let a = config_hash(&AnalysisConfig::default());
        let b = config_hash(
            &AnalysisConfig::default()
                .with_budget(crate::Budget { deadline_ms: Some(50), ..Default::default() }),
        );
        assert_eq!(a, b, "deadline_ms must not key the store");
    }

    #[test]
    fn second_opener_detaches_while_lock_held() {
        let dir = tmp_dir("lock");
        let mut owner = SummaryStore::open(&dir).unwrap();
        assert!(!owner.lock_busy());
        owner.save(7, sample_entry(), &Vec::new()).unwrap();

        // Same process, second open file description: the advisory lock
        // is still exclusive, so the racer comes up detached and cold.
        let mut racer = SummaryStore::open(&dir).unwrap();
        assert!(racer.lock_busy(), "concurrent opener must detect the held lock");
        assert_eq!(racer.manifest(7), None, "detached store reads nothing");
        assert_eq!(racer.scc_count(), 0);
        // Detached saves are silent no-ops: the owner's file is untouched.
        let stats = racer.save(8, sample_entry(), &Vec::new()).unwrap();
        assert_eq!(stats, SaveStats::default());

        drop(owner);
        let reopened = SummaryStore::open(&dir).unwrap();
        assert!(!reopened.lock_busy(), "lock must release with the owner");
        assert_eq!(reopened.manifest(7), Some(&sample_entry()));
        assert_eq!(reopened.manifest(8), None, "the detached save must not have landed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_hash_ignores_list_order() {
        // Regression: external-function lists used to be hashed in the
        // order given, so the same configuration spelled with flags in a
        // different order missed warm replay.
        use crate::{CriticalCall, RecvSpec};
        let a = AnalysisConfig {
            implicit_critical_calls: vec![CriticalCall::new("kill", 0), CriticalCall::new("rb", 1)],
            recv_functions: vec![RecvSpec::new("recv", 0, 1), RecvSpec::new("read", 0, 1)],
            ..Default::default()
        };
        let mut b = a.clone();
        b.implicit_critical_calls.reverse();
        b.recv_functions.reverse();
        assert_eq!(config_hash(&a), config_hash(&b), "list order must not key the store");
        // Different *contents* still change the key.
        b.implicit_critical_calls.push(CriticalCall::new("abort", 0));
        assert_ne!(config_hash(&a), config_hash(&b));
    }

    #[test]
    fn config_hash_ignores_policy_declaration_order() {
        // Same rule as the flag-order regression above, extended to the
        // label policy: two policies differing only in the order labels or
        // declassifier pairs were declared are the same policy, and must
        // warm-replay against each other's stored entries.
        use crate::policy::Policy;
        let a = AnalysisConfig {
            policy: Policy::builder()
                .label("sensor_a")
                .label("sensor_b")
                .declassifier("sensor_a", "trusted")
                .declassifier("sensor_b", "trusted")
                .build(),
            ..Default::default()
        };
        let b = AnalysisConfig {
            policy: Policy::builder()
                .label("sensor_b")
                .label("sensor_a")
                .declassifier("sensor_b", "trusted")
                .declassifier("sensor_a", "trusted")
                .build(),
            ..Default::default()
        };
        assert_eq!(
            config_hash(&a),
            config_hash(&b),
            "policy declaration order must not key the store"
        );
        // A genuinely different policy still changes the key.
        let c = AnalysisConfig {
            policy: Policy::builder().label("sensor_a").build(),
            ..Default::default()
        };
        assert_ne!(config_hash(&a), config_hash(&c));
        // And the default (two-point) policy differs from any declared one.
        assert_ne!(config_hash(&c), config_hash(&AnalysisConfig::default()));
    }

    #[test]
    fn config_hash_sees_critical_call_clearance() {
        use crate::CriticalCall;
        let a = AnalysisConfig {
            implicit_critical_calls: vec![CriticalCall::new("kill", 0)],
            ..Default::default()
        };
        let b = AnalysisConfig {
            implicit_critical_calls: vec![CriticalCall::with_clearance("kill", 0, "fused")],
            ..Default::default()
        };
        assert_ne!(config_hash(&a), config_hash(&b), "clearance must key the store");
    }
}
