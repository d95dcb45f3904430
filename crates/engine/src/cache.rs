//! The persistent content-hash verdict cache behind incremental corpus
//! runs.
//!
//! One cache file holds the verdicts of one compiled
//! [`CastContext`](schemacast_core::CastContext): the
//! header records the context fingerprint
//! ([`schemacast_core::context_fingerprint`]) and every entry keys on a
//! 128-bit hash of the document's raw bytes. A re-run after editing k of
//! n files therefore revalidates exactly the k changed files, while any
//! change to either schema, the cast options, or the computed
//! `R_sub`/`R_dis` fixpoints changes the fingerprint and silently turns
//! the whole file cold.
//!
//! **Trust model.** The cache is a performance artifact, never an
//! authority: a file that fails *any* structural check — magic, length,
//! trailing checksum, fingerprint, certification scope — loads as an
//! empty cold cache, indistinguishable from a missing file except for the
//! recorded [`ColdReason`]. A `--certify` run only warms from a file
//! whose [`certification digest`](schemacast_core::certification_digest)
//! matches its own freshly certified context, so certified runs never
//! inherit verdicts recorded without proof-checked preprocessing.
//!
//! **What is cached.** Content-derived verdicts only: valid, invalid,
//! and malformed (including invalid UTF-8), each with the item's
//! [`ValidationStats`] so warm runs replay the same per-item report
//! ([`ValidationStats::without_clocks`]: wall-clock counters are not
//! content-derived).
//! [`ItemOutcome::ReadFailed`] is transient I/O and is never recorded.

use crate::report::ItemOutcome;
use schemacast_core::{Fnv64, ValidationStats};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Magic + format version; bump the digit to orphan every existing file.
const MAGIC: &[u8; 8] = b"SCVC0001";
/// Number of `u64` words one serialized [`ValidationStats`] occupies.
const STATS_WORDS: usize = 20;

/// Reads a little-endian `u64` at `off` (caller guarantees 8 bytes).
#[inline]
fn load64(bytes: &[u8], off: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(word)
}

/// 128-bit content hash of a document's raw bytes — a cache key, not a
/// MAC. The bulk loop runs four independent multiply-rotate lanes over
/// 32-byte blocks, so the multiply latencies overlap instead of
/// serializing; on the warm-cache path this hash *is* the per-byte cost,
/// so its throughput directly bounds warm docs/sec.
pub fn content_hash(bytes: &[u8]) -> (u64, u64) {
    const M1: u64 = 0x9e37_79b9_7f4a_7c15;
    const M2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    let len = bytes.len() as u64;
    let mut l0 = 0x8422_2325_cbf2_9ce4u64 ^ len;
    let mut l1 = 0x2545_f491_4f6c_dd1du64 ^ len.rotate_left(16);
    let mut l2 = 0x9e6c_63d0_876a_46bbu64 ^ len.rotate_left(32);
    let mut l3 = 0xcbf2_9ce4_8422_2325u64 ^ len.rotate_left(48);
    let mut blocks = bytes.chunks_exact(32);
    for block in blocks.by_ref() {
        l0 = (l0 ^ load64(block, 0)).wrapping_mul(M1).rotate_left(27);
        l1 = (l1 ^ load64(block, 8)).wrapping_mul(M2).rotate_left(31);
        l2 = (l2 ^ load64(block, 16)).wrapping_mul(M1).rotate_left(29);
        l3 = (l3 ^ load64(block, 24)).wrapping_mul(M2).rotate_left(25);
    }
    // Cross-fold the lanes so every input word influences both halves.
    let mut h1 = l0.wrapping_mul(M1) ^ l2.rotate_left(19);
    let mut h2 = l1.wrapping_mul(M2) ^ l3.rotate_left(23);
    // Sub-block tail: word-at-a-time, then the final partial word tagged
    // with its length so `"a"` and `"a\0"` stay distinct.
    let mut chunks = blocks.remainder().chunks_exact(8);
    for chunk in chunks.by_ref() {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        let w = u64::from_le_bytes(word);
        h1 = (h1 ^ w).wrapping_mul(M1).rotate_left(27);
        h2 = (h2 ^ w.rotate_left(32)).wrapping_mul(M2).rotate_left(31);
    }
    let mut tail = [0u8; 8];
    let rest = chunks.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    let w = u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56;
    h1 = (h1 ^ w).wrapping_mul(M1);
    h2 = (h2 ^ w.rotate_left(32)).wrapping_mul(M2);
    (
        fmix64(h1 ^ h2.rotate_left(17)),
        fmix64(h2 ^ h1.rotate_left(43)),
    )
}

/// Murmur3's 64-bit finalizer: full avalanche over the accumulator.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// The cacheable portion of a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VerdictKind {
    Valid,
    Invalid,
    Malformed,
}

impl VerdictKind {
    fn code(self) -> u8 {
        match self {
            VerdictKind::Valid => 0,
            VerdictKind::Invalid => 1,
            VerdictKind::Malformed => 2,
        }
    }

    fn from_code(code: u8) -> Option<VerdictKind> {
        match code {
            0 => Some(VerdictKind::Valid),
            1 => Some(VerdictKind::Invalid),
            2 => Some(VerdictKind::Malformed),
            _ => None,
        }
    }
}

/// One cached verdict plus the stats to replay with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    kind: VerdictKind,
    /// The malformed-XML message (empty for valid/invalid).
    message: String,
    /// Per-item stats as recorded, wall-clock counters zeroed.
    stats: ValidationStats,
}

impl CacheEntry {
    /// Builds an entry from a verdict, or `None` for outcomes the cache
    /// must not record ([`ItemOutcome::ReadFailed`] and the batch-only
    /// variants).
    pub fn from_outcome(outcome: &ItemOutcome, stats: ValidationStats) -> Option<CacheEntry> {
        let (kind, message) = match outcome {
            ItemOutcome::Valid => (VerdictKind::Valid, String::new()),
            ItemOutcome::Invalid => (VerdictKind::Invalid, String::new()),
            ItemOutcome::MalformedXml(m) => (VerdictKind::Malformed, m.clone()),
            ItemOutcome::ReadFailed(_)
            | ItemOutcome::EditFailed(_)
            | ItemOutcome::ChainBroken { .. } => return None,
        };
        Some(CacheEntry {
            kind,
            message,
            stats: stats.without_clocks(),
        })
    }

    /// The verdict and stats this entry replays.
    pub fn replay(&self) -> (ItemOutcome, ValidationStats) {
        let outcome = match self.kind {
            VerdictKind::Valid => ItemOutcome::Valid,
            VerdictKind::Invalid => ItemOutcome::Invalid,
            VerdictKind::Malformed => ItemOutcome::MalformedXml(self.message.clone()),
        };
        (outcome, self.stats)
    }
}

/// Why a load produced a cold cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColdReason {
    /// No cache file existed (or it was unreadable).
    NoFile,
    /// The file was structurally invalid: bad magic, truncation, trailing
    /// garbage, or a checksum mismatch. The payload names the first check
    /// that failed.
    Corrupt(&'static str),
    /// The file was written under a different compiled context (schema,
    /// options, or relations changed — or the fingerprint format did).
    ContextChanged,
    /// This is a certified run and the file's verdicts were not recorded
    /// under the same certified fingerprint.
    NotCertified,
}

/// How a [`VerdictCache::load`] went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLoad {
    /// Started empty; the reason is diagnostic only.
    Cold(ColdReason),
    /// Entries were trusted and loaded.
    Warm {
        /// Number of entries loaded.
        entries: usize,
    },
}

/// A persistent verdict cache bound to one compiled context.
#[derive(Debug)]
pub struct VerdictCache {
    context_fp: u64,
    /// Certification digest of the *current* run: non-zero iff this run
    /// certified its context. Written to the header on save, so the next
    /// certified run can decide whether to trust the file.
    cert_digest: u64,
    entries: HashMap<(u64, u64), CacheEntry>,
    load: CacheLoad,
}

impl VerdictCache {
    /// An empty cache for a context (no backing file yet).
    ///
    /// `cert_digest` is this run's certification digest, or 0 for an
    /// uncertified run; it scopes both what the cache will *trust* on
    /// load and what it *records* on save.
    pub fn empty(context_fp: u64, cert_digest: u64) -> VerdictCache {
        VerdictCache {
            context_fp,
            cert_digest,
            entries: HashMap::new(),
            load: CacheLoad::Cold(ColdReason::NoFile),
        }
    }

    /// Loads `path` for a context, trusting entries only if every
    /// structural and scope check passes; any failure yields an empty
    /// cold cache (see the module docs — a cache is never an authority,
    /// so load itself cannot fail).
    pub fn load(path: &Path, context_fp: u64, cert_digest: u64) -> VerdictCache {
        let mut cache = VerdictCache::empty(context_fp, cert_digest);
        let Ok(bytes) = std::fs::read(path) else {
            return cache;
        };
        match parse(&bytes, context_fp, cert_digest) {
            Ok(entries) => {
                cache.load = CacheLoad::Warm {
                    entries: entries.len(),
                };
                cache.entries = entries;
            }
            Err(reason) => cache.load = CacheLoad::Cold(reason),
        }
        cache
    }

    /// How the load went.
    pub fn load_status(&self) -> &CacheLoad {
        &self.load
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for a content hash, if any.
    pub fn get(&self, hash: (u64, u64)) -> Option<&CacheEntry> {
        self.entries.get(&hash)
    }

    /// Records (or replaces) the entry for a content hash.
    pub fn insert(&mut self, hash: (u64, u64), entry: CacheEntry) {
        self.entries.insert(hash, entry);
    }

    /// Writes the cache atomically (temp file + rename), in sorted hash
    /// order so identical caches produce byte-identical files.
    ///
    /// # Errors
    /// Propagates I/O errors from the temp write or the rename.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut buf = Vec::with_capacity(64 + self.entries.len() * (24 + STATS_WORDS * 8));
        buf.extend_from_slice(MAGIC);
        push_u64(&mut buf, self.context_fp);
        push_u64(&mut buf, self.cert_digest);
        push_u64(&mut buf, STATS_WORDS as u64);
        push_u64(&mut buf, self.entries.len() as u64);
        let mut keys: Vec<&(u64, u64)> = self.entries.keys().collect();
        keys.sort_unstable();
        for key in keys {
            let entry = &self.entries[key];
            push_u64(&mut buf, key.0);
            push_u64(&mut buf, key.1);
            buf.push(entry.kind.code());
            push_u64(&mut buf, entry.message.len() as u64);
            buf.extend_from_slice(entry.message.as_bytes());
            for word in stats_words(entry.stats) {
                push_u64(&mut buf, word);
            }
        }
        let mut check = Fnv64::new();
        check.write(&buf);
        push_u64(&mut buf, check.finish());

        // The temp name must be unique per saver: with a fixed name, two
        // concurrent saves interleave write/rename on the same temp file
        // and can publish a torn cache (found by the loomlite cache-save
        // model; see tests/conc_model.rs).
        let tmp = unique_tmp_path(path);
        std::fs::write(&tmp, &buf)?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }
}

/// A sibling temp path no concurrent saver collides with: process id
/// plus a process-global counter. Two threads saving the same cache get
/// distinct temp files, and the final rename decides the winner — the
/// published file is always one complete save.
fn unique_tmp_path(path: &Path) -> PathBuf {
    use loomlite::sync::atomic::{AtomicU64, Ordering};
    static SAVE_IDS: AtomicU64 = AtomicU64::new(0);
    // ordering: Relaxed — the counter only needs uniqueness (RMWs form a
    // single total order per location); nothing else is published.
    let n = SAVE_IDS.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(|s| s.to_os_string())
        .unwrap_or_default();
    name.push(format!(".{}.{n}.tmp", std::process::id()));
    path.with_file_name(name)
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// The fixed serialization order of [`ValidationStats`] — all fields,
/// explicitly, so adding a field without updating this (and the reader)
/// is a compile error via the exhaustive destructuring.
fn stats_words(s: ValidationStats) -> [u64; STATS_WORDS] {
    let ValidationStats {
        nodes_visited,
        content_symbols_scanned,
        subsumed_skips,
        disjoint_rejects,
        ida_early_accepts,
        ida_early_rejects,
        full_validations,
        value_checks,
        static_skips,
        static_rejects,
        script_skips,
        script_rejects,
        bytes_skipped,
        events_avoided,
        index_build_micros,
        tape_events,
        tape_skip_hops,
        certs_emitted,
        certs_checked,
        cert_check_micros,
    } = s;
    [
        nodes_visited as u64,
        content_symbols_scanned as u64,
        subsumed_skips as u64,
        disjoint_rejects as u64,
        ida_early_accepts as u64,
        ida_early_rejects as u64,
        full_validations as u64,
        value_checks as u64,
        static_skips as u64,
        static_rejects as u64,
        script_skips as u64,
        script_rejects as u64,
        bytes_skipped as u64,
        events_avoided as u64,
        index_build_micros as u64,
        tape_events as u64,
        tape_skip_hops as u64,
        certs_emitted as u64,
        certs_checked as u64,
        cert_check_micros as u64,
    ]
}

fn stats_from_words(w: &[u64; STATS_WORDS]) -> ValidationStats {
    ValidationStats {
        nodes_visited: w[0] as usize,
        content_symbols_scanned: w[1] as usize,
        subsumed_skips: w[2] as usize,
        disjoint_rejects: w[3] as usize,
        ida_early_accepts: w[4] as usize,
        ida_early_rejects: w[5] as usize,
        full_validations: w[6] as usize,
        value_checks: w[7] as usize,
        static_skips: w[8] as usize,
        static_rejects: w[9] as usize,
        script_skips: w[10] as usize,
        script_rejects: w[11] as usize,
        bytes_skipped: w[12] as usize,
        events_avoided: w[13] as usize,
        index_build_micros: w[14] as usize,
        tape_events: w[15] as usize,
        tape_skip_hops: w[16] as usize,
        certs_emitted: w[17] as usize,
        certs_checked: w[18] as usize,
        cert_check_micros: w[19] as usize,
    }
}

/// A bounds-checked little-endian reader over the raw file.
struct Reader<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    fn take(&mut self, n: usize) -> Result<&'b [u8], ColdReason> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(ColdReason::Corrupt("truncated"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, ColdReason> {
        let mut word = [0u8; 8];
        word.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(word))
    }

    fn u8(&mut self) -> Result<u8, ColdReason> {
        Ok(self.take(1)?[0])
    }
}

fn parse(
    bytes: &[u8],
    context_fp: u64,
    cert_digest: u64,
) -> Result<HashMap<(u64, u64), CacheEntry>, ColdReason> {
    // Checksum first: it covers everything else, so a flipped bit
    // anywhere — header, entries, even the magic — reads as corrupt.
    if bytes.len() < MAGIC.len() + 8 {
        return Err(ColdReason::Corrupt("shorter than header"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let mut check = Fnv64::new();
    check.write(body);
    let mut stored = [0u8; 8];
    stored.copy_from_slice(trailer);
    if check.finish() != u64::from_le_bytes(stored) {
        return Err(ColdReason::Corrupt("checksum mismatch"));
    }

    let mut r = Reader {
        bytes: body,
        pos: 0,
    };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(ColdReason::Corrupt("bad magic"));
    }
    if r.u64()? != context_fp {
        return Err(ColdReason::ContextChanged);
    }
    let stored_digest = r.u64()?;
    // A certified run trusts only verdicts recorded under its own
    // certified fingerprint; an uncertified run trusts either.
    if cert_digest != 0 && stored_digest != cert_digest {
        return Err(ColdReason::NotCertified);
    }
    if r.u64()? != STATS_WORDS as u64 {
        return Err(ColdReason::Corrupt("stats layout changed"));
    }
    let count = r.u64()?;
    let mut entries = HashMap::with_capacity(usize::try_from(count).unwrap_or(0));
    for _ in 0..count {
        let hash = (r.u64()?, r.u64()?);
        let kind =
            VerdictKind::from_code(r.u8()?).ok_or(ColdReason::Corrupt("unknown verdict kind"))?;
        let msg_len =
            usize::try_from(r.u64()?).map_err(|_| ColdReason::Corrupt("oversized message"))?;
        let message = String::from_utf8(r.take(msg_len)?.to_vec())
            .map_err(|_| ColdReason::Corrupt("non-UTF-8 message"))?;
        let mut words = [0u64; STATS_WORDS];
        for word in &mut words {
            *word = r.u64()?;
        }
        entries.insert(
            hash,
            CacheEntry {
                kind,
                message,
                stats: stats_from_words(&words),
            },
        );
    }
    if r.pos != body.len() {
        return Err(ColdReason::Corrupt("trailing garbage"));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("schemacast-cache-{}-{name}", std::process::id()));
        p
    }

    fn sample_entry(kind_outcome: &ItemOutcome, visits: usize) -> CacheEntry {
        let stats = ValidationStats {
            nodes_visited: visits,
            index_build_micros: 999, // must be zeroed on record
            ..ValidationStats::default()
        };
        CacheEntry::from_outcome(kind_outcome, stats).expect("cacheable")
    }

    #[test]
    fn content_hash_separates_and_is_stable() {
        let a = content_hash(b"<doc>1</doc>");
        assert_eq!(a, content_hash(b"<doc>1</doc>"));
        assert_ne!(a, content_hash(b"<doc>2</doc>"));
        assert_ne!(content_hash(b""), content_hash(b"\0"));
        assert_ne!(content_hash(b"\0"), content_hash(b"\0\0"));
        // Tail bytes beyond the last full word must matter.
        assert_ne!(content_hash(b"12345678a"), content_hash(b"12345678b"));
    }

    #[test]
    fn roundtrip_preserves_entries_and_zeroes_clocks() {
        let path = temp("roundtrip");
        let mut cache = VerdictCache::empty(42, 0);
        cache.insert((1, 2), sample_entry(&ItemOutcome::Valid, 7));
        cache.insert(
            (3, 4),
            sample_entry(&ItemOutcome::MalformedXml("boom at 3:1".into()), 0),
        );
        cache.insert((5, 6), sample_entry(&ItemOutcome::Invalid, 9));
        cache.save(&path).expect("save");

        let loaded = VerdictCache::load(&path, 42, 0);
        assert_eq!(loaded.load_status(), &CacheLoad::Warm { entries: 3 });
        let (outcome, stats) = loaded.get((1, 2)).expect("hit").replay();
        assert_eq!(outcome, ItemOutcome::Valid);
        assert_eq!(stats.nodes_visited, 7);
        assert_eq!(stats.index_build_micros, 0, "clocks are not content");
        let (outcome, _) = loaded.get((3, 4)).expect("hit").replay();
        assert_eq!(outcome, ItemOutcome::MalformedXml("boom at 3:1".into()));
        assert!(loaded.get((9, 9)).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_fingerprint_is_cold() {
        let path = temp("fingerprint");
        let mut cache = VerdictCache::empty(42, 0);
        cache.insert((1, 2), sample_entry(&ItemOutcome::Valid, 1));
        cache.save(&path).expect("save");
        let loaded = VerdictCache::load(&path, 43, 0);
        assert_eq!(
            loaded.load_status(),
            &CacheLoad::Cold(ColdReason::ContextChanged)
        );
        assert!(loaded.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn certified_runs_trust_only_their_own_digest() {
        let path = temp("certified");
        let mut cache = VerdictCache::empty(42, 0xBEEF);
        cache.insert((1, 2), sample_entry(&ItemOutcome::Valid, 1));
        cache.save(&path).expect("save");

        // Same certified digest: warm. Different digest or a digest
        // against an uncertified file: cold.
        assert!(matches!(
            VerdictCache::load(&path, 42, 0xBEEF).load_status(),
            CacheLoad::Warm { entries: 1 }
        ));
        assert_eq!(
            VerdictCache::load(&path, 42, 0xDEAD).load_status(),
            &CacheLoad::Cold(ColdReason::NotCertified)
        );
        // An uncertified run may reuse certified verdicts.
        assert!(matches!(
            VerdictCache::load(&path, 42, 0).load_status(),
            CacheLoad::Warm { entries: 1 }
        ));

        let mut uncertified = VerdictCache::empty(42, 0);
        uncertified.insert((1, 2), sample_entry(&ItemOutcome::Valid, 1));
        uncertified.save(&path).expect("save");
        assert_eq!(
            VerdictCache::load(&path, 42, 0xBEEF).load_status(),
            &CacheLoad::Cold(ColdReason::NotCertified)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_corruption_is_detected() {
        let path = temp("corrupt");
        let mut cache = VerdictCache::empty(42, 0);
        cache.insert((1, 2), sample_entry(&ItemOutcome::Valid, 7));
        cache.insert(
            (3, 4),
            sample_entry(&ItemOutcome::MalformedXml("msg".into()), 1),
        );
        cache.save(&path).expect("save");
        let original = std::fs::read(&path).expect("read back");

        // Flip every single byte in turn: nothing may load warm.
        for i in 0..original.len() {
            let mut bytes = original.clone();
            bytes[i] ^= 0x40;
            std::fs::write(&path, &bytes).expect("write corrupt");
            let loaded = VerdictCache::load(&path, 42, 0);
            assert!(
                matches!(loaded.load_status(), CacheLoad::Cold(_)),
                "flipped byte {i} still loaded warm"
            );
            assert!(loaded.is_empty());
        }
        // Truncate at every length: same.
        for len in 0..original.len() {
            std::fs::write(&path, &original[..len]).expect("write truncated");
            assert!(
                matches!(
                    VerdictCache::load(&path, 42, 0).load_status(),
                    CacheLoad::Cold(_)
                ),
                "truncation to {len} still loaded warm"
            );
        }
        // Appended garbage: same.
        let mut bytes = original.clone();
        bytes.push(0);
        std::fs::write(&path, &bytes).expect("write extended");
        assert!(matches!(
            VerdictCache::load(&path, 42, 0).load_status(),
            CacheLoad::Cold(_)
        ));
        // And the pristine file still loads.
        std::fs::write(&path, &original).expect("restore");
        assert!(matches!(
            VerdictCache::load(&path, 42, 0).load_status(),
            CacheLoad::Warm { entries: 2 }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_failures_are_never_cached() {
        assert!(CacheEntry::from_outcome(
            &ItemOutcome::ReadFailed("enoent".into()),
            ValidationStats::default()
        )
        .is_none());
    }

    #[test]
    fn save_is_deterministic() {
        let (p1, p2) = (temp("det1"), temp("det2"));
        let mut a = VerdictCache::empty(7, 0);
        let mut b = VerdictCache::empty(7, 0);
        // Insert in different orders; files must still be identical.
        let entries = [
            ((1u64, 1u64), sample_entry(&ItemOutcome::Valid, 1)),
            ((2, 2), sample_entry(&ItemOutcome::Invalid, 2)),
            ((3, 3), sample_entry(&ItemOutcome::Valid, 3)),
        ];
        for (k, e) in &entries {
            a.insert(*k, e.clone());
        }
        for (k, e) in entries.iter().rev() {
            b.insert(*k, e.clone());
        }
        a.save(&p1).expect("save");
        b.save(&p2).expect("save");
        assert_eq!(
            std::fs::read(&p1).expect("read"),
            std::fs::read(&p2).expect("read")
        );
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }
}
