//! Consistent-hash ring placing tenants on shards.
//!
//! Classic Karger-style ring: each shard contributes `vnodes` points hashed
//! onto a `u64` circle, and a tenant routes to the owner of the first point
//! clockwise from its own hash. Virtual nodes smooth the per-shard load
//! (stddev shrinks ~`1/sqrt(vnodes)`), and the clockwise walk doubles as the
//! shed-to-neighbor policy: when a shard is down, its tenants fall to the
//! *next distinct* shard on the ring — a deterministic, minimal reshuffle —
//! and fall straight back when it recovers.

use infs_faults::{fnv1a, mix64};

/// Domain tag separating ring-point hashes from tenant hashes.
const DOM_POINT: u64 = 0x5269_6e67; // "Ring"
/// Domain tag for the tenant-hash finalizer.
const DOM_TENANT: u64 = 0x546e_6e74; // "Tnnt"

/// Tenant name → ring position. Raw [`fnv1a`] is *not* enough here: similar
/// short names ("t0" … "t7") hash within ~`multiplier × Δbyte` ≈ 2^47 of each
/// other, far tighter than the ~2^56 average arc between ring points, so a
/// whole tenant family would pile onto one shard. A `mix64` finalizer
/// restores avalanche — one flipped input bit moves the tenant anywhere on
/// the circle — while staying a pure function of the name.
fn tenant_point(tenant: &str) -> u64 {
    mix64(DOM_TENANT, fnv1a(tenant.as_bytes()), 0)
}

/// A consistent-hash ring over shards `0..n`.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, u32)>,
    shards: u32,
}

impl HashRing {
    /// Build a ring of `shards` shards with `vnodes` points each. The ring
    /// is a pure function of `(shards, vnodes)` — every router replica
    /// agrees on placement with no coordination.
    pub fn new(shards: u32, vnodes: u32) -> Self {
        let mut points = Vec::with_capacity((shards * vnodes) as usize);
        for s in 0..shards {
            for v in 0..vnodes {
                points.push((mix64(DOM_POINT, u64::from(s), u64::from(v)), s));
            }
        }
        points.sort_unstable();
        Self { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard that owns `tenant` when every shard is healthy.
    pub fn route(&self, tenant: &str) -> u32 {
        self.successors(tenant).next().expect("ring is non-empty")
    }

    /// The shard that serves `tenant` given per-shard aliveness: the owner
    /// if alive, otherwise the first alive distinct shard clockwise (the
    /// ring neighbor). `None` when every shard is down.
    pub fn route_with(&self, tenant: &str, alive: impl Fn(u32) -> bool) -> Option<u32> {
        self.successors(tenant).find(|&s| alive(s))
    }

    /// Distinct shards in clockwise order starting at `tenant`'s owner.
    /// `successors(t).nth(1)` is the shed target when the owner dies.
    pub fn successors<'a>(&'a self, tenant: &str) -> impl Iterator<Item = u32> + 'a {
        let h = tenant_point(tenant);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let n = self.points.len();
        let mut seen = Vec::with_capacity(self.shards as usize);
        (0..n).filter_map(move |i| {
            let (_, s) = self.points[(start + i) % n];
            if seen.contains(&s) {
                None
            } else {
                seen.push(s);
                Some(s)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        let ring = HashRing::new(4, 64);
        let other = HashRing::new(4, 64);
        for i in 0..100 {
            let t = format!("tenant-{i}");
            let s = ring.route(&t);
            assert!(s < 4);
            assert_eq!(s, other.route(&t), "replicas must agree");
        }
    }

    #[test]
    fn vnodes_balance_load() {
        let ring = HashRing::new(4, 64);
        let mut counts = [0u32; 4];
        for i in 0..4000 {
            counts[ring.route(&format!("tenant-{i}")) as usize] += 1;
        }
        for &c in &counts {
            // 4000 tenants over 4 shards: expect 1000 ± a generous band.
            assert!((400..=1800).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn similar_short_tenant_names_disperse() {
        // Regression: raw FNV-1a placed "t0" … "t7" (the loadgen's tenant
        // family) on a single shard of four — their hashes sit closer
        // together than one ring arc. The finalizer must spread them.
        let ring = HashRing::new(4, 64);
        let mut hit = [false; 4];
        for t in 0..8 {
            hit[ring.route(&format!("t{t}")) as usize] = true;
        }
        let shards_used = hit.iter().filter(|&&h| h).count();
        assert!(shards_used >= 3, "t0..t7 cover only {shards_used} shards");
    }

    #[test]
    fn dead_owner_sheds_to_clockwise_neighbor_only() {
        let ring = HashRing::new(4, 64);
        let mut moved = 0;
        for i in 0..1000 {
            let t = format!("tenant-{i}");
            let owner = ring.route(&t);
            let dead = 2u32;
            let rerouted = ring.route_with(&t, |s| s != dead).unwrap();
            if owner == dead {
                // Sheds exactly to the next distinct shard clockwise.
                let neighbor = ring.successors(&t).nth(1).unwrap();
                assert_eq!(rerouted, neighbor);
                moved += 1;
            } else {
                // Tenants whose owner is alive must not move at all.
                assert_eq!(rerouted, owner);
            }
        }
        assert!(moved > 0, "seed tenants never landed on shard 2");
    }

    #[test]
    fn all_dead_routes_none_and_successors_cover_all() {
        let ring = HashRing::new(3, 8);
        assert_eq!(ring.route_with("t", |_| false), None);
        let mut shards: Vec<u32> = ring.successors("t").collect();
        shards.sort_unstable();
        assert_eq!(shards, vec![0, 1, 2]);
    }
}
