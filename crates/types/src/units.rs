//! Small unit newtypes.
//!
//! The simulator and models pass around a lot of raw numbers (bytes,
//! rates). These wrappers keep the units straight at API
//! boundaries while converting to `f64` freely for arithmetic-heavy model
//! code.

use serde::{Deserialize, Serialize};

/// A byte quantity (sizes of buffer pools, working sets, RAM, tuples).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bytes(pub u64);

impl Bytes {
    pub const ZERO: Bytes = Bytes(0);

    /// Construct from kibibytes.
    pub const fn kib(k: u64) -> Bytes {
        Bytes(k * 1024)
    }

    /// Construct from mebibytes.
    pub const fn mib(m: u64) -> Bytes {
        Bytes(m * 1024 * 1024)
    }

    /// Construct from gibibytes.
    pub const fn gib(g: u64) -> Bytes {
        Bytes(g * 1024 * 1024 * 1024)
    }

    /// Value as `f64` bytes, for model arithmetic.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Value in mebibytes.
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Value in gibibytes.
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// `self * factor`, rounding to the nearest byte and clamping at zero.
    pub fn scale(self, factor: f64) -> Bytes {
        Bytes((self.0 as f64 * factor).max(0.0).round() as u64)
    }

    /// Number of fixed-size pages needed to hold this many bytes (ceiling).
    pub fn pages(self, page_size: Bytes) -> u64 {
        debug_assert!(page_size.0 > 0, "page size must be non-zero");
        self.0.div_ceil(page_size.0)
    }
}

impl std::ops::Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0 as f64;
        if b >= 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} GiB", self.as_gib())
        } else if b >= 1024.0 * 1024.0 {
            write!(f, "{:.1} MiB", self.as_mib())
        } else if b >= 1024.0 {
            write!(f, "{:.1} KiB", b / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// An event rate in events per second (transactions/s, rows updated/s, ...).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Rate(pub f64);

impl Rate {
    pub const ZERO: Rate = Rate(0.0);

    pub fn as_f64(self) -> f64 {
        self.0
    }
}

impl std::ops::Add for Rate {
    type Output = Rate;
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl std::iter::Sum for Rate {
    fn sum<I: Iterator<Item = Rate>>(iter: I) -> Rate {
        iter.fold(Rate::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors() {
        assert_eq!(Bytes::kib(1).0, 1024);
        assert_eq!(Bytes::mib(1).0, 1024 * 1024);
        assert_eq!(Bytes::gib(2).0, 2 * 1024 * 1024 * 1024);
    }

    #[test]
    fn byte_page_count_rounds_up() {
        let page = Bytes::kib(16);
        assert_eq!(Bytes(0).pages(page), 0);
        assert_eq!(Bytes(1).pages(page), 1);
        assert_eq!(Bytes::kib(16).pages(page), 1);
        assert_eq!(Bytes(16 * 1024 + 1).pages(page), 2);
    }

    #[test]
    fn byte_scale_clamps_at_zero() {
        assert_eq!(Bytes::mib(10).scale(-1.0), Bytes::ZERO);
        assert_eq!(Bytes::mib(10).scale(0.5), Bytes::mib(5));
    }

    #[test]
    fn byte_display_picks_unit() {
        assert_eq!(format!("{}", Bytes(12)), "12 B");
        assert_eq!(format!("{}", Bytes::kib(2)), "2.0 KiB");
        assert_eq!(format!("{}", Bytes::mib(3)), "3.0 MiB");
        assert_eq!(format!("{}", Bytes::gib(1)), "1.00 GiB");
    }

    #[test]
    fn bytes_sum() {
        let total: Bytes = [Bytes::mib(1), Bytes::mib(2)].into_iter().sum();
        assert_eq!(total, Bytes::mib(3));
    }

    #[test]
    fn rate_sum() {
        let total: Rate = [Rate(1.5), Rate(2.5)].into_iter().sum();
        assert_eq!(total.as_f64(), 4.0);
    }
}
