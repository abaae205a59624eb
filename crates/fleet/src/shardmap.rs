//! Tenant → shard assignment.
//!
//! The shard map is the control plane's routing truth: every tenant
//! belongs to exactly one shard at any time (the single-ownership
//! invariant of the handoff protocol), and each shard owns a disjoint
//! slice of the host fleet. Machine indices are shard-local — shard `s`'s
//! machine `m` is a different physical host from shard `t`'s machine `m`.

use std::collections::BTreeMap;

/// Where every tenant lives.
#[derive(Debug, Clone, Default)]
pub struct ShardMap {
    shards: usize,
    of: BTreeMap<String, usize>,
}

impl ShardMap {
    pub fn new(shards: usize) -> ShardMap {
        assert!(shards >= 1, "need at least one shard");
        ShardMap {
            shards,
            of: BTreeMap::new(),
        }
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    pub fn len(&self) -> usize {
        self.of.len()
    }

    pub fn is_empty(&self) -> bool {
        self.of.is_empty()
    }

    /// Assign (or re-assign, on handoff) a tenant to a shard.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn assign(&mut self, tenant: &str, shard: usize) {
        assert!(shard < self.shards, "shard {shard} out of range");
        self.of.insert(tenant.to_string(), shard);
    }

    /// Apply a balance round's records: every completed handoff
    /// re-routes its tenant to the destination. Rejected and failed
    /// handoffs leave the routing at the source.
    pub fn apply(&mut self, records: &[crate::HandoffRecord]) {
        for record in records.iter().filter(|r| r.completed()) {
            let to = record.to.expect("completed handoffs carry a destination");
            self.assign(&record.tenant, to);
        }
    }

    pub fn shard_of(&self, tenant: &str) -> Option<usize> {
        self.of.get(tenant).copied()
    }

    /// Remove a tenant (left the fleet). Returns its former shard.
    pub fn remove(&mut self, tenant: &str) -> Option<usize> {
        self.of.remove(tenant)
    }

    /// All `(tenant, shard)` assignments in sorted tenant order — the
    /// checkpointable image of the routing truth.
    pub fn entries(&self) -> impl Iterator<Item = (&str, usize)> {
        self.of.iter().map(|(t, &s)| (t.as_str(), s))
    }

    /// Tenants currently mapped to `shard`, sorted.
    pub fn tenants_of(&self, shard: usize) -> Vec<String> {
        self.of
            .iter()
            .filter(|&(_, &s)| s == shard)
            .map(|(t, _)| t.clone())
            .collect()
    }

    /// Tenant count per shard.
    pub fn counts(&self) -> Vec<usize> {
        let mut c = vec![0usize; self.shards];
        for &s in self.of.values() {
            c[s] += 1;
        }
        c
    }

    /// The shard with the fewest tenants — the default admission target
    /// for brand-new arrivals (handoffs use load-aware placement
    /// instead).
    pub fn least_populated(&self) -> usize {
        let counts = self.counts();
        (0..self.shards)
            .min_by_key(|&s| counts[s])
            .expect("at least one shard")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_lookup_remove() {
        let mut m = ShardMap::new(4);
        m.assign("a", 0);
        m.assign("b", 3);
        assert_eq!(m.shard_of("a"), Some(0));
        assert_eq!(m.shard_of("b"), Some(3));
        assert_eq!(m.shard_of("c"), None);
        assert_eq!(m.len(), 2);
        // Handoff: re-assign.
        m.assign("a", 2);
        assert_eq!(m.shard_of("a"), Some(2));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove("a"), Some(2));
        assert_eq!(m.shard_of("a"), None);
    }

    #[test]
    fn counts_and_least_populated() {
        let mut m = ShardMap::new(3);
        m.assign("a", 0);
        m.assign("b", 0);
        m.assign("c", 2);
        assert_eq!(m.counts(), vec![2, 0, 1]);
        assert_eq!(m.least_populated(), 1);
        assert_eq!(m.tenants_of(0), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_shard_rejected() {
        let mut m = ShardMap::new(2);
        m.assign("a", 2);
    }
}
