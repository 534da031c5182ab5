//! The traced run's instruments, all outside the engine: a timing
//! decorator at the storage boundary, the id of the facade call a thread
//! is inside, and an event sink that totals compaction phases.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use ldc_obs::{Event, EventSink};
use ldc_ssd::{IoClass, SsdDevice, SsdResult, StorageBackend};

thread_local! {
    /// Id of the facade call the current thread is inside (0: none).
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
    /// Whether the current thread is a benchmark load thread.
    static LOAD_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as a load thread for the rest of its life.
pub fn mark_load_thread() {
    LOAD_THREAD.with(|c| c.set(true));
}

/// Sets the facade call the calling thread is inside (0 when it leaves).
pub fn set_current_op(op: u64) {
    CURRENT_OP.with(|c| c.set(op));
}

/// The storage method a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    WriteFile,
    Append,
    Read,
    ReadSequential,
    ReadAll,
    Size,
    Exists,
    Delete,
    Rename,
    Sync,
    SyncedLen,
    Truncate,
    LinkFile,
    ListDir,
    List,
    TotalBytes,
}

/// One storage call: what it moved, on whose behalf, and when (host
/// nanoseconds since the decorator was built).
#[derive(Debug, Clone, Copy)]
pub struct IoSpan {
    pub method: Method,
    pub class: Option<IoClass>,
    pub bytes: u64,
    /// Facade call the calling thread was inside; 0 for calls outside any
    /// op (background workers, set-up, end-of-run queries).
    pub parent_op: u64,
    pub load_thread: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times every [`StorageBackend`] call and forwards it unchanged.
///
/// Every trait method is forwarded explicitly, including the ones with
/// default bodies: a default would route `read_all`, `link_file` or
/// `total_bytes` through other methods and change what the device is
/// charged, so the traced run would no longer be time-identical.
pub struct TimedStorage {
    inner: Arc<dyn StorageBackend>,
    origin: Instant,
    spans: Mutex<Vec<IoSpan>>,
}

impl TimedStorage {
    pub fn new(inner: Arc<dyn StorageBackend>, origin: Instant) -> Arc<Self> {
        Arc::new(TimedStorage {
            inner,
            origin,
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Takes every span recorded so far.
    pub fn take_spans(&self) -> Vec<IoSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    fn timed<T>(
        &self,
        method: Method,
        class: Option<IoClass>,
        bytes: impl FnOnce(&T) -> u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let start = self.origin.elapsed();
        let out = call();
        let end = self.origin.elapsed();
        let span = IoSpan {
            method,
            class,
            bytes: bytes(&out),
            parent_op: CURRENT_OP.with(Cell::get),
            load_thread: LOAD_THREAD.with(Cell::get),
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
        out
    }
}

fn read_len(out: &SsdResult<Bytes>) -> u64 {
    out.as_ref().map_or(0, |b| b.len() as u64)
}

impl StorageBackend for TimedStorage {
    fn write_file(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()> {
        let n = data.len() as u64;
        self.timed(
            Method::WriteFile,
            Some(class),
            |_| n,
            || self.inner.write_file(name, data, class),
        )
    }

    fn append(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()> {
        let n = data.len() as u64;
        self.timed(
            Method::Append,
            Some(class),
            |_| n,
            || self.inner.append(name, data, class),
        )
    }

    fn read(&self, name: &str, offset: u64, len: u64, class: IoClass) -> SsdResult<Bytes> {
        self.timed(Method::Read, Some(class), read_len, || {
            self.inner.read(name, offset, len, class)
        })
    }

    fn read_sequential(
        &self,
        name: &str,
        offset: u64,
        len: u64,
        class: IoClass,
    ) -> SsdResult<Bytes> {
        self.timed(Method::ReadSequential, Some(class), read_len, || {
            self.inner.read_sequential(name, offset, len, class)
        })
    }

    fn read_all(&self, name: &str, class: IoClass) -> SsdResult<Bytes> {
        self.timed(Method::ReadAll, Some(class), read_len, || {
            self.inner.read_all(name, class)
        })
    }

    fn size(&self, name: &str) -> SsdResult<u64> {
        self.timed(Method::Size, None, |_| 0, || self.inner.size(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.timed(Method::Exists, None, |_| 0, || self.inner.exists(name))
    }

    fn delete(&self, name: &str) -> SsdResult<()> {
        self.timed(Method::Delete, None, |_| 0, || self.inner.delete(name))
    }

    fn rename(&self, from: &str, to: &str) -> SsdResult<()> {
        self.timed(Method::Rename, None, |_| 0, || self.inner.rename(from, to))
    }

    fn sync(&self, name: &str) -> SsdResult<()> {
        self.timed(Method::Sync, None, |_| 0, || self.inner.sync(name))
    }

    fn synced_len(&self, name: &str) -> SsdResult<u64> {
        self.timed(
            Method::SyncedLen,
            None,
            |_| 0,
            || self.inner.synced_len(name),
        )
    }

    fn truncate(&self, name: &str, len: u64) -> SsdResult<()> {
        self.timed(
            Method::Truncate,
            None,
            |_| 0,
            || self.inner.truncate(name, len),
        )
    }

    fn link_file(&self, from: &str, to: &str, class: IoClass) -> SsdResult<()> {
        self.timed(
            Method::LinkFile,
            Some(class),
            |_| 0,
            || self.inner.link_file(from, to, class),
        )
    }

    fn list_dir(&self, prefix: &str) -> Vec<String> {
        self.timed(Method::ListDir, None, |_| 0, || self.inner.list_dir(prefix))
    }

    fn list(&self) -> Vec<String> {
        self.timed(Method::List, None, |_| 0, || self.inner.list())
    }

    fn device(&self) -> Arc<SsdDevice> {
        self.inner.device()
    }

    fn total_bytes(&self) -> u64 {
        self.timed(Method::TotalBytes, None, |_| 0, || self.inner.total_bytes())
    }
}

/// Totals of the engine's compaction events over a window.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTotals {
    pub read_ns: u64,
    pub merge_ns: u64,
    pub write_ns: u64,
}

/// Event sink keeping only compaction-phase totals (flush, merge, link,
/// trivial move), so a long run holds no event list.
#[derive(Debug, Default)]
pub struct PhaseSink {
    totals: Mutex<PhaseTotals>,
}

impl PhaseSink {
    pub fn take(&self) -> PhaseTotals {
        std::mem::take(&mut *self.totals.lock().expect("phase totals poisoned"))
    }
}

impl EventSink for PhaseSink {
    fn record(&self, event: Event) {
        if !event.kind.is_compaction() {
            return;
        }
        let mut t = self.totals.lock().expect("phase totals poisoned");
        t.read_ns += event.read_nanos;
        t.merge_ns += event.merge_nanos;
        t.write_ns += event.write_nanos;
    }
}
