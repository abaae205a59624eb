//! Page and table identity.
//!
//! Every logical database object in the simulator is a contiguous range of
//! fixed-size pages, which is all the buffer-pool, flusher and disk models
//! need. Page ids are allocated monotonically per [`crate::engine::DbmsInstance`],
//! so a page id also identifies the on-disk position — the flusher's
//! "sorted write-back" is literally a sort by `PageId`.

use kairos_types::Bytes;

/// Globally-ordered page identifier within one DBMS instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

/// Identifier of a logical database hosted by an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DatabaseId(pub u32);

/// Identifier of a table within an instance (unique across its databases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u32);

/// A contiguous run of pages `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRange {
    pub start: PageId,
    pub len: u64,
}

impl PageRange {
    pub fn new(start: PageId, len: u64) -> PageRange {
        PageRange { start, len }
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exclusive end page id.
    pub fn end(&self) -> PageId {
        PageId(self.start.0 + self.len)
    }

    pub fn contains(&self, p: PageId) -> bool {
        p >= self.start && p < self.end()
    }

    /// The `i`-th page of the range.
    ///
    /// # Panics
    /// Panics (debug) if `i >= len`.
    pub fn page(&self, i: u64) -> PageId {
        debug_assert!(i < self.len, "page index {i} out of range of {}", self.len);
        PageId(self.start.0 + i)
    }

    /// Size of the range in bytes for a given page size.
    pub fn bytes(&self, page_size: Bytes) -> Bytes {
        Bytes(self.len * page_size.0)
    }

    /// First `n` pages (or the whole range if shorter).
    pub fn prefix(&self, n: u64) -> PageRange {
        PageRange {
            start: self.start,
            len: self.len.min(n),
        }
    }
}

/// Monotonic page allocator for one DBMS instance.
#[derive(Debug, Default)]
pub struct PageAllocator {
    next: u64,
}

impl PageAllocator {
    pub fn new() -> PageAllocator {
        PageAllocator { next: 0 }
    }

    /// Allocate a contiguous range of `len` pages.
    pub fn allocate(&mut self, len: u64) -> PageRange {
        let start = PageId(self.next);
        self.next += len;
        PageRange { start, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_basics() {
        let r = PageRange::new(PageId(10), 5);
        assert_eq!(r.end(), PageId(15));
        assert!(r.contains(PageId(10)));
        assert!(r.contains(PageId(14)));
        assert!(!r.contains(PageId(15)));
        assert_eq!(r.page(2), PageId(12));
    }

    #[test]
    fn range_bytes() {
        let r = PageRange::new(PageId(0), 4);
        assert_eq!(r.bytes(Bytes::kib(16)), Bytes::kib(64));
    }

    #[test]
    fn allocator_is_contiguous_and_disjoint() {
        let mut a = PageAllocator::new();
        let r1 = a.allocate(10);
        let r2 = a.allocate(3);
        assert_eq!(r1.start, PageId(0));
        assert_eq!(r2.start, PageId(10));
        assert!(!r1.contains(r2.start));
    }

    #[test]
    fn prefix_clamps() {
        let r = PageRange::new(PageId(0), 5);
        assert_eq!(r.prefix(3).len, 3);
        assert_eq!(r.prefix(99).len, 5);
    }
}
