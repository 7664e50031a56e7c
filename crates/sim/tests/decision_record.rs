//! The placement decision record on the `sim.region` span: every entry
//! names its tier and forced tier, and an Inf-S entry that Eq 2 decided
//! carries both sides of the inequality it compared.

use infs_frontend::{Idx, KernelBuilder, ScalarExpr};
use infs_isa::{Compiler, RegionInstance};
use infs_sdfg::DataType;
use infs_sim::{ExecMode, Executed, Machine, SystemConfig};
use infs_trace::ArgValue;

/// `C[i] = A[i] + B[i]` over `n` elements.
fn vec_add_region(n: u64) -> RegionInstance {
    let mut k = KernelBuilder::new("vec_add", DataType::F32);
    let a = k.array("A", vec![n]);
    let b = k.array("B", vec![n]);
    let c = k.array("C", vec![n]);
    let i = k.parallel_loop("i", 0, n as i64);
    k.assign(
        c,
        vec![Idx::var(i)],
        ScalarExpr::add(
            ScalarExpr::load(a, vec![Idx::var(i)]),
            ScalarExpr::load(b, vec![Idx::var(i)]),
        ),
    );
    Compiler::default()
        .compile(k.build().unwrap(), &[])
        .unwrap()
        .into_instance(&[])
        .unwrap()
}

#[test]
fn infs_region_spans_carry_the_eq2_terms() {
    let session = infs_trace::exclusive();
    for (n, want) in [
        (1 << 17, Executed::InMemory),
        (1 << 12, Executed::NearMemory),
    ] {
        let region = vec_add_region(n);
        let mut m = Machine::new(SystemConfig::default(), region.sdfg.arrays());
        m.set_functional(false);
        let r = m.run_region(&region, &[], ExecMode::InfS).unwrap();
        assert_eq!(r.executed, want, "{n} elements");
    }
    let snap = infs_trace::snapshot();
    drop(session);

    let regions: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name == "sim.region")
        .collect();
    assert_eq!(regions.len(), 2);
    let mut tiers = Vec::new();
    for e in regions {
        let arg = |key| {
            let found = e.args.iter().find(|(k, _)| *k == key);
            found.map(|(_, v)| v.clone()).unwrap_or_else(|| {
                panic!("sim.region lacks `{key}`: {:?}", e.args);
            })
        };
        let (ArgValue::Str(tier), ArgValue::UInt(core), ArgValue::UInt(in_memory)) =
            (arg("tier"), arg("eq2_core"), arg("eq2_in_memory"))
        else {
            panic!("mistyped decision args: {:?}", e.args);
        };
        assert_eq!(arg("forced"), ArgValue::Str("none".into()));
        assert_eq!(tier == "in-memory", core > in_memory, "{:?}", e.args);
        tiers.push(tier);
    }
    tiers.sort();
    assert_eq!(tiers, ["in-memory", "near-memory"]);
}
