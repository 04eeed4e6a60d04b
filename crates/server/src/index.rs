//! The TraceIndex: a concurrent, LRU-capped, lazily-loaded cache of
//! parsed job traces shared by every connection.
//!
//! Parsing a job's traces (`UntypedSession::open`) is the expensive step
//! — it validates and indexes every record — so it must happen once per
//! job, not once per request. The index keeps an `Arc<UntypedSession>`
//! per hot job behind two lock layers:
//!
//! * a map lock, held only to look up / install a job's **slot**, and
//! * a per-slot lock, held across the parse — so two requests for the
//!   same cold job parse it once (the second blocks on the slot), while
//!   requests for *different* cold jobs parse in parallel.
//!
//! Eviction is LRU by a logical tick counter, capped at `capacity`
//! sessions; an evicted session stays alive for requests still holding
//! its `Arc` and is simply re-parsed on the next miss.

use std::collections::HashMap;
use std::sync::Arc;

use graft::trace::{meta_path, result_path};
use graft::untyped::{JobSummary, UntypedSession};
use graft::views::json as vj;
use graft_dfs::{FileSystem, FsError};
use graft_obs::{latest_snapshot, parse_jsonl_lenient, Event, LiveSnapshot, Obs, Scope};
// The map and per-slot locks are graft-sched shims: plain mutexes in
// production, scheduler yield points + happens-before edges under
// `check-sched`, which model-checks the two-phase parse-once protocol.
use graft_sched::sync::Mutex;

/// Errors from serving a job out of the index.
#[derive(Debug)]
pub enum IndexError {
    /// The job id is not a plain directory name under the trace root.
    BadJobId(String),
    /// The job directory does not exist (no `meta.json`).
    NoSuchJob(String),
    /// The traces exist but could not be parsed.
    Session(String),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::BadJobId(id) => write!(f, "invalid job id {id:?}"),
            IndexError::NoSuchJob(id) => write!(f, "no such job {id:?}"),
            IndexError::Session(why) => write!(f, "cannot open traces: {why}"),
        }
    }
}

impl std::error::Error for IndexError {}

struct Slot {
    session: Arc<Mutex<Option<Arc<UntypedSession>>>>,
    last_used: u64,
}

struct Inner {
    slots: HashMap<String, Slot>,
    tick: u64,
}

/// A cached *partial* session of an in-flight job, keyed by the live
/// watermark it was parsed at: it stays valid until the frontier
/// advances, because watermark-covered supersteps are immutable.
struct LiveSlot {
    watermark: Option<u64>,
    session: Arc<UntypedSession>,
    last_used: u64,
}

struct LiveInner {
    slots: HashMap<String, LiveSlot>,
    tick: u64,
}

/// The shared cache of parsed jobs. Cheap to clone via `Arc` at the
/// server layer; all methods take `&self`.
pub struct TraceIndex {
    fs: Arc<dyn FileSystem>,
    root: String,
    capacity: usize,
    obs: Arc<Obs>,
    inner: Mutex<Inner>,
    live: Mutex<LiveInner>,
}

impl TraceIndex {
    /// An index over the jobs under `root` on `fs`, keeping at most
    /// `capacity` parsed sessions. Hit/miss/eviction counters and parse
    /// latencies land in `obs`'s registry (and therefore in `/metrics`).
    pub fn new(fs: Arc<dyn FileSystem>, root: &str, capacity: usize, obs: Arc<Obs>) -> Self {
        Self {
            fs,
            root: root.trim_end_matches('/').to_string(),
            capacity: capacity.max(1),
            obs,
            inner: Mutex::new(Inner { slots: HashMap::new(), tick: 0 }),
            live: Mutex::new(LiveInner { slots: HashMap::new(), tick: 0 }),
        }
    }

    fn job_root(&self, id: &str) -> String {
        format!("{}/{id}", self.root)
    }

    fn obs_dir(&self, id: &str) -> String {
        format!("{}/obs", self.job_root(id))
    }

    /// Lists the job ids under the trace root: every direct or nested
    /// directory holding a `meta.json`, sorted.
    pub fn jobs(&self) -> Result<Vec<String>, IndexError> {
        // A root of "/" normalizes to "" (job paths join cleanly), but the
        // listing itself needs the real directory back.
        let list_root = if self.root.is_empty() { "/" } else { self.root.as_str() };
        let files = self
            .fs
            .list_files_recursive(list_root)
            .map_err(|e| IndexError::Session(e.to_string()))?;
        let prefix = format!("{}/", self.root);
        let mut ids: Vec<String> = files
            .iter()
            .filter_map(|f| {
                let rel = f.path.strip_prefix(&prefix)?;
                let id = rel.strip_suffix("/meta.json")?;
                // Checkpoint directories etc. carry their own files but no
                // meta.json, so only actual job roots survive this filter.
                Some(id.to_string())
            })
            .collect();
        ids.sort();
        ids.dedup();
        Ok(ids)
    }

    /// The parsed session of one job, from cache or freshly parsed.
    pub fn session(&self, id: &str) -> Result<Arc<UntypedSession>, IndexError> {
        validate_job_id(id)?;

        // Phase 1 (map lock): find or install the job's slot and stamp
        // its recency. The lock is dropped before any parsing happens.
        let slot = {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let slot = inner
                .slots
                .entry(id.to_string())
                .or_insert_with(|| Slot { session: Arc::new(Mutex::new(None)), last_used: 0 });
            slot.last_used = tick;
            Arc::clone(&slot.session)
        };

        // Phase 2 (slot lock): parse on miss. Concurrent requests for the
        // same job serialize here; other jobs are untouched.
        let mut guard = slot.lock();
        if let Some(session) = guard.as_ref() {
            self.obs.registry().inc("server_index_hits", Scope::GLOBAL, 1);
            return Ok(Arc::clone(session));
        }
        self.obs.registry().inc("server_index_misses", Scope::GLOBAL, 1);
        let root = self.job_root(id);
        if !self.fs.exists(&graft::trace::meta_path(&root)) {
            // Remove the speculative slot so unknown ids cannot fill the map.
            drop(guard);
            self.remove_slot(id, &slot);
            return Err(IndexError::NoSuchJob(id.to_string()));
        }
        let timer = self.obs.timer();
        let session = match UntypedSession::open(Arc::clone(&self.fs), &root) {
            Ok(session) => session,
            Err(e) => {
                // An unparseable job (e.g. a corrupt channel) must not occupy a
                // slot either: eviction only runs on successful loads, so a
                // dead slot would count against capacity forever and its
                // recency stamps could evict live sessions.
                drop(guard);
                self.remove_slot(id, &slot);
                return Err(IndexError::Session(e.to_string()));
            }
        };
        self.obs.registry().observe_time("server_index_parse_nanos", Scope::GLOBAL, timer.stop());
        let session = Arc::new(session);
        *guard = Some(Arc::clone(&session));
        drop(guard);

        self.evict_over_capacity(id);
        Ok(session)
    }

    /// The `/jobs` listing document for one job. A resident parsed session
    /// answers straight from the cache; a cold job gets a listing-only
    /// [`JobSummary`] scan that never installs a slot — so enumerating a
    /// trace root far larger than `capacity` neither evicts a hot session
    /// nor re-parses every job through the cache.
    pub fn job_listing(&self, id: &str) -> Result<vj::JobJson, IndexError> {
        validate_job_id(id)?;
        let slot = {
            let inner = self.inner.lock();
            inner.slots.get(id).map(|slot| Arc::clone(&slot.session))
        };
        // A parse in progress holds the slot lock; waiting it out turns
        // into a free hit. An empty slot (the parse failed) falls through
        // to the summary scan.
        if let Some(slot) = slot {
            let guard = slot.lock();
            if let Some(session) = guard.as_ref() {
                self.obs.registry().inc("server_index_hits", Scope::GLOBAL, 1);
                return Ok(vj::job_json(id, session));
            }
        }
        let root = self.job_root(id);
        if !self.fs.exists(&graft::trace::meta_path(&root)) {
            return Err(IndexError::NoSuchJob(id.to_string()));
        }
        let timer = self.obs.timer();
        let summary = JobSummary::scan(self.fs.as_ref(), &root)
            .map_err(|e| IndexError::Session(e.to_string()))?;
        self.obs.registry().inc("server_index_summary_scans", Scope::GLOBAL, 1);
        self.obs.registry().observe_time(
            "server_index_summary_scan_nanos",
            Scope::GLOBAL,
            timer.stop(),
        );
        Ok(vj::job_summary_json(id, &summary))
    }

    /// The newest committed live snapshot of one job, if it streamed any.
    pub fn live_snapshot(&self, id: &str) -> Result<Option<LiveSnapshot>, IndexError> {
        validate_job_id(id)?;
        if !self.fs.exists(&meta_path(&self.job_root(id))) {
            return Err(IndexError::NoSuchJob(id.to_string()));
        }
        latest_snapshot(self.fs.as_ref(), &self.obs_dir(id))
            .map_err(|e| IndexError::Session(e.to_string()))
    }

    /// One job's streaming event log, parsed leniently: a final line
    /// caught torn mid-append is skipped; everything before it is served.
    /// An absent log (the job has not flushed yet, or never streamed) is
    /// an empty list, not an error.
    pub fn live_events(&self, id: &str) -> Result<Vec<Event>, IndexError> {
        validate_job_id(id)?;
        if !self.fs.exists(&meta_path(&self.job_root(id))) {
            return Err(IndexError::NoSuchJob(id.to_string()));
        }
        let path = format!("{}/{}", self.obs_dir(id), graft_obs::EVENTS_FILE);
        let bytes = match self.fs.read_all(&path) {
            Ok(bytes) => bytes,
            Err(FsError::NotFound(_)) => return Ok(Vec::new()),
            Err(e) => return Err(IndexError::Session(e.to_string())),
        };
        let text = String::from_utf8(bytes).map_err(|e| IndexError::Session(e.to_string()))?;
        let (events, _torn) = parse_jsonl_lenient(&text).map_err(IndexError::Session)?;
        Ok(events)
    }

    /// The session a follow-mode server renders views from.
    ///
    /// A completed job (`result.json` present) takes the exact
    /// non-follow path — the cached full parse — so post-completion
    /// responses are byte-identical to a server without `--follow`. An
    /// in-flight job gets a *partial* session over its
    /// complete-and-immutable prefix (rows at or below the live
    /// watermark, torn trailing line tolerated), cached per watermark
    /// and re-parsed only when the frontier advances. If a refresh fails
    /// to parse, the previous partial session is served stale — a
    /// monitoring read must not 500 because it raced a write.
    pub fn follow_session(&self, id: &str) -> Result<Arc<UntypedSession>, IndexError> {
        validate_job_id(id)?;
        let root = self.job_root(id);
        if self.fs.exists(&result_path(&root)) {
            // Terminal: retire the partial session; the full parse takes
            // over from here.
            self.live.lock().slots.remove(id);
            return self.session(id);
        }
        if !self.fs.exists(&meta_path(&root)) {
            return Err(IndexError::NoSuchJob(id.to_string()));
        }
        let watermark = latest_snapshot(self.fs.as_ref(), &self.obs_dir(id))
            .map_err(|e| IndexError::Session(e.to_string()))?
            .and_then(|s| s.watermark);

        {
            let mut live = self.live.lock();
            live.tick += 1;
            let tick = live.tick;
            if let Some(slot) = live.slots.get_mut(id) {
                slot.last_used = tick;
                if slot.watermark == watermark {
                    self.obs.registry().inc("server_live_hits", Scope::GLOBAL, 1);
                    return Ok(Arc::clone(&slot.session));
                }
            }
        }

        // The frontier advanced (or this is the first look): parse the
        // completed prefix. No watermark yet means at most superstep 0's
        // rows are durable, so that is all a reader may see.
        let timer = self.obs.timer();
        let session =
            match UntypedSession::open_partial(Arc::clone(&self.fs), &root, watermark.unwrap_or(0))
            {
                Ok(session) => Arc::new(session),
                Err(e) => {
                    let live = self.live.lock();
                    if let Some(slot) = live.slots.get(id) {
                        self.obs.registry().inc("server_live_stale_serves", Scope::GLOBAL, 1);
                        return Ok(Arc::clone(&slot.session));
                    }
                    return Err(IndexError::Session(e.to_string()));
                }
            };
        self.obs.registry().inc("server_live_opens", Scope::GLOBAL, 1);
        self.obs.registry().observe_time("server_live_parse_nanos", Scope::GLOBAL, timer.stop());

        let mut live = self.live.lock();
        live.tick += 1;
        let tick = live.tick;
        // Two refreshes may race here (there is no per-slot lock on the
        // live path — partial parses are cheap and disposable); the later
        // insert wins, and either session is a valid committed prefix.
        live.slots.insert(
            id.to_string(),
            LiveSlot { watermark, session: Arc::clone(&session), last_used: tick },
        );
        while live.slots.len() > self.capacity {
            let Some(victim) = live
                .slots
                .iter()
                .filter(|(key, _)| key.as_str() != id)
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            live.slots.remove(&victim);
            self.obs.registry().inc("server_live_evictions", Scope::GLOBAL, 1);
        }
        Ok(session)
    }

    /// Partial sessions currently resident (test / metrics hook).
    pub fn live_resident(&self) -> usize {
        self.live.lock().slots.len()
    }

    /// Removes a failed speculative slot — but only if the map still holds
    /// *this* slot, so a concurrent re-install (evict + fresh load) of the
    /// same id is never clobbered.
    fn remove_slot(&self, id: &str, slot: &Arc<Mutex<Option<Arc<UntypedSession>>>>) {
        let mut inner = self.inner.lock();
        if inner.slots.get(id).is_some_and(|s| Arc::ptr_eq(&s.session, slot)) {
            inner.slots.remove(id);
        }
    }

    /// Evicts least-recently-used slots until at most `capacity` remain,
    /// never evicting `just_loaded`.
    fn evict_over_capacity(&self, just_loaded: &str) {
        let mut inner = self.inner.lock();
        while inner.slots.len() > self.capacity {
            let Some(victim) = inner
                .slots
                .iter()
                .filter(|(id, _)| id.as_str() != just_loaded)
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(id, _)| id.clone())
            else {
                break;
            };
            inner.slots.remove(&victim);
            self.obs.registry().inc("server_index_evictions", Scope::GLOBAL, 1);
        }
    }

    /// Parsed sessions currently resident (test / metrics hook).
    pub fn resident(&self) -> usize {
        self.inner.lock().slots.len()
    }
}

/// Job ids come off the URL; only plain single-segment directory names
/// are addressable, which keeps `..`/absolute escapes out of the fs.
fn validate_job_id(id: &str) -> Result<(), IndexError> {
    let ok = !id.is_empty()
        && id != "."
        && id != ".."
        && id.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if ok {
        Ok(())
    } else {
        Err(IndexError::BadJobId(id.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::write_synthetic_trace;
    use graft_dfs::InMemoryFs;

    fn index_with_jobs(capacity: usize, jobs: &[&str]) -> TraceIndex {
        let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        for job in jobs {
            write_synthetic_trace(fs.as_ref(), &format!("/traces/{job}"), 8, 2).unwrap();
        }
        TraceIndex::new(fs, "/traces", capacity, Obs::wall())
    }

    #[test]
    fn lists_jobs_and_parses_once_per_job() {
        let index = index_with_jobs(4, &["alpha", "beta"]);
        assert_eq!(index.jobs().unwrap(), vec!["alpha", "beta"]);
        let first = index.session("alpha").unwrap();
        let second = index.session("alpha").unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hit must return the cached parse");
        let registry = index.obs.registry();
        assert_eq!(registry.counter_value("server_index_misses", Scope::GLOBAL), 1);
        assert_eq!(registry.counter_value("server_index_hits", Scope::GLOBAL), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_job() {
        let index = index_with_jobs(2, &["a", "b", "c"]);
        index.session("a").unwrap();
        index.session("b").unwrap();
        index.session("a").unwrap(); // refresh a; b is now coldest
        index.session("c").unwrap(); // forces an eviction
        assert_eq!(index.resident(), 2);
        let a_again = index.session("a").unwrap();
        assert_eq!(a_again.meta().computation, "SynthComputation");
        assert_eq!(index.obs.registry().counter_value("server_index_evictions", Scope::GLOBAL), 1);
    }

    #[test]
    fn traversal_and_unknown_ids_are_rejected() {
        let index = index_with_jobs(2, &["real"]);
        assert!(matches!(index.session(".."), Err(IndexError::BadJobId(_))));
        assert!(matches!(index.session("a/b"), Err(IndexError::BadJobId(_))));
        assert!(matches!(index.session(""), Err(IndexError::BadJobId(_))));
        assert!(matches!(index.session("ghost"), Err(IndexError::NoSuchJob(_))));
        // A failed lookup must not occupy cache capacity.
        assert_eq!(index.resident(), 0);
    }

    #[test]
    fn job_listing_is_byte_identical_and_never_churns_the_cache() {
        let index = index_with_jobs(1, &["a", "b", "c"]);
        let hot = index.session("a").unwrap();
        // Listing every job — more than capacity — must match the full
        // renderer byte for byte without installing or evicting anything.
        for id in ["a", "b", "c"] {
            let from_listing = vj::to_line(&index.job_listing(id).unwrap());
            let session =
                UntypedSession::open(Arc::clone(&index.fs), &format!("/traces/{id}")).unwrap();
            let from_session = vj::to_line(&vj::job_json(id, &session));
            assert_eq!(from_listing, from_session, "{id}");
        }
        assert_eq!(index.resident(), 1, "listing must not fill the cache");
        let again = index.session("a").unwrap();
        assert!(Arc::ptr_eq(&hot, &again), "listing must not evict the hot session");
        let registry = index.obs.registry();
        assert_eq!(registry.counter_value("server_index_misses", Scope::GLOBAL), 1);
        assert_eq!(registry.counter_value("server_index_summary_scans", Scope::GLOBAL), 2);
        assert!(matches!(index.job_listing("ghost"), Err(IndexError::NoSuchJob(_))));
        assert!(matches!(index.job_listing("../x"), Err(IndexError::BadJobId(_))));
    }

    #[test]
    fn unparseable_jobs_do_not_occupy_cache_slots() {
        let index = index_with_jobs(1, &["good"]);
        // meta.json exists, so the lookup reaches the parse — which fails.
        index.fs.mkdirs("/traces/corrupt").unwrap();
        index.fs.write_all("/traces/corrupt/meta.json", b"{ not json").unwrap();
        let good = index.session("good").unwrap();
        for _ in 0..3 {
            assert!(matches!(index.session("corrupt"), Err(IndexError::Session(_))));
        }
        assert_eq!(index.resident(), 1, "failed parses must not hold slots");
        let again = index.session("good").unwrap();
        assert!(Arc::ptr_eq(&good, &again), "dead slots must not evict live sessions");
    }

    #[test]
    fn follow_session_serves_the_watermark_prefix_and_refreshes_on_advance() {
        use crate::synth::{commit_synthetic_snapshot, write_synthetic_live_trace};
        let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        write_synthetic_live_trace(fs.as_ref(), "/traces/inflight", 8, 2, 1).unwrap();
        let index = TraceIndex::new(Arc::clone(&fs), "/traces", 4, Obs::wall());

        // Watermark 0: only superstep 0 is served, torn tail tolerated.
        let partial = index.follow_session("inflight").unwrap();
        assert_eq!(partial.supersteps(), vec![0]);
        // Same watermark: the cached partial session answers.
        let again = index.follow_session("inflight").unwrap();
        assert!(Arc::ptr_eq(&partial, &again), "unchanged frontier must hit the live cache");
        let registry = index.obs.registry();
        assert_eq!(registry.counter_value("server_live_opens", Scope::GLOBAL), 1);
        assert_eq!(registry.counter_value("server_live_hits", Scope::GLOBAL), 1);

        // The frontier advances: the next look re-parses up to it.
        write_synthetic_live_trace(fs.as_ref(), "/traces/inflight", 8, 2, 2).unwrap();
        commit_synthetic_snapshot(fs.as_ref(), "/traces/inflight", 3, 1).unwrap();
        let refreshed = index.follow_session("inflight").unwrap();
        assert_eq!(refreshed.supersteps(), vec![0, 1]);
        assert_eq!(registry.counter_value("server_live_opens", Scope::GLOBAL), 2);

        // Completion retires the partial session for the full cached parse.
        write_synthetic_trace(fs.as_ref(), "/traces/inflight", 8, 2).unwrap();
        let full = index.follow_session("inflight").unwrap();
        assert_eq!(full.supersteps(), vec![0, 1, 2]);
        assert!(full.result().is_some());
        assert_eq!(index.live_resident(), 0, "terminal jobs must not hold partial sessions");
        let direct = index.session("inflight").unwrap();
        assert!(Arc::ptr_eq(&full, &direct), "completed jobs share the non-follow cache");
    }

    #[test]
    fn follow_session_serves_stale_on_refresh_failure() {
        use crate::synth::{commit_synthetic_snapshot, write_synthetic_live_trace};
        let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        write_synthetic_live_trace(fs.as_ref(), "/traces/flaky", 8, 2, 1).unwrap();
        let index = TraceIndex::new(Arc::clone(&fs), "/traces", 4, Obs::wall());
        let first = index.follow_session("flaky").unwrap();

        // The frontier advances but the trace bytes go bad mid-write: the
        // previous partial session answers instead of a 500. Here the
        // channel starts with a whole frame of no known kind.
        fs.write_all("/traces/flaky/worker_0.trace", &[2, 9, 0, 0x7b]).unwrap();
        commit_synthetic_snapshot(fs.as_ref(), "/traces/flaky", 2, 1).unwrap();
        let stale = index.follow_session("flaky").unwrap();
        assert!(Arc::ptr_eq(&first, &stale), "a failed refresh must serve the cached session");
        let registry = index.obs.registry();
        assert_eq!(registry.counter_value("server_live_stale_serves", Scope::GLOBAL), 1);

        // A job that never parsed has nothing to fall back to.
        fs.mkdirs("/traces/broken").unwrap();
        fs.write_all("/traces/broken/meta.json", b"{ not json").unwrap();
        assert!(matches!(index.follow_session("broken"), Err(IndexError::Session(_))));
    }

    #[test]
    fn live_snapshot_and_events_read_the_obs_channels() {
        use crate::synth::write_synthetic_live_trace;
        let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        write_synthetic_live_trace(fs.as_ref(), "/traces/live", 8, 2, 2).unwrap();
        let index = TraceIndex::new(Arc::clone(&fs), "/traces", 4, Obs::wall());

        let snap = index.live_snapshot("live").unwrap().unwrap();
        assert_eq!(snap.seq, 2);
        assert_eq!(snap.watermark, Some(1));
        let events = index.live_events("live").unwrap();
        assert_eq!(events.iter().filter(|e| e.is_point("watermark")).count(), 2);

        // A torn trailing event line is skipped, not an error.
        let mut w = fs.append("/traces/live/obs/events.jsonl").unwrap();
        use std::io::Write as _;
        w.write_all(b"{\"ts\":9,\"kind\":\"to").unwrap();
        w.sync().unwrap();
        assert_eq!(index.live_events("live").unwrap().len(), events.len());

        assert!(matches!(index.live_snapshot("ghost"), Err(IndexError::NoSuchJob(_))));
        assert!(matches!(index.live_events("../x"), Err(IndexError::BadJobId(_))));
        // A job that never streamed has no snapshot and no events.
        write_synthetic_trace(fs.as_ref(), "/traces/plain", 8, 2).unwrap();
        assert!(index.live_snapshot("plain").unwrap().is_none());
        assert!(index.live_events("plain").unwrap().is_empty());
    }

    #[test]
    fn concurrent_misses_for_one_job_parse_once() {
        let index = Arc::new(index_with_jobs(4, &["shared"]));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let index = Arc::clone(&index);
                std::thread::spawn(move || index.session("shared").unwrap())
            })
            .collect();
        let sessions: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(sessions.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        let misses = index.obs.registry().counter_value("server_index_misses", Scope::GLOBAL);
        assert_eq!(misses, 1, "slot lock must serialize the cold parse");
    }
}
