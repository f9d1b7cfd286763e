//! A counting [`Storage`] wrapper around [`FsStorage`]. It is passed to
//! the store through the public `SeriesWriter::new` / `SeriesStore::open`
//! and counts every chunk write and read exactly, with the time spent
//! inside the backend.

use cf_store::{FsStorage, Storage, StoreError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Snapshot of the counters; subtract two to get one phase's share.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoCounts {
    pub put_ns: u64,
    pub bytes_written: u64,
    pub gets: u64,
    pub get_ns: u64,
    pub bytes_read: u64,
}

impl std::ops::Sub for IoCounts {
    type Output = IoCounts;
    fn sub(self, b: IoCounts) -> IoCounts {
        IoCounts {
            put_ns: self.put_ns - b.put_ns,
            bytes_written: self.bytes_written - b.bytes_written,
            gets: self.gets - b.gets,
            get_ns: self.get_ns - b.get_ns,
            bytes_read: self.bytes_read - b.bytes_read,
        }
    }
}

pub struct CountingStorage {
    inner: FsStorage,
    put_ns: AtomicU64,
    bytes_written: AtomicU64,
    gets: AtomicU64,
    get_ns: AtomicU64,
    bytes_read: AtomicU64,
}

impl CountingStorage {
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            inner: FsStorage::new(root),
            put_ns: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            get_ns: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> IoCounts {
        IoCounts {
            put_ns: self.put_ns.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            get_ns: self.get_ns.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Storage for CountingStorage {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let t0 = Instant::now();
        let out = self.inner.put(key, bytes);
        self.put_ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        out
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        let t0 = Instant::now();
        let out = self.inner.get(key);
        self.get_ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        self.gets.fetch_add(1, Ordering::Relaxed);
        if let Ok(bytes) = &out {
            self.bytes_read
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }

    fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.inner.delete(key)
    }

    fn target(&self, key: &str) -> String {
        self.inner.target(key)
    }
}
