//! Liveness: which tensors each stage stages ahead for its successor and
//! which die with it. What stays in L3 under pressure is not decided here —
//! the machine's residency ledger is the one capacity rule (`DESIGN.md` §7).

use crate::{PipelineError, PipelineGraph};
use std::collections::BTreeSet;

/// The liveness lists of one stage, each ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePlan {
    /// The next stage's working set minus every tensor this stage or an
    /// earlier one touches: its operands staged *during* this stage (the
    /// overlap win).
    pub prefetch: Vec<u32>,
    /// Tensors whose last use is this stage, released after it.
    pub evict: Vec<u32>,
}

/// The liveness lists of a graph, one [`StagePlan`] per stage in execution
/// order: the "only the current layer resident" discipline of the paper's
/// PointNet++ case study, generalized — a tensor is staged for its first
/// consumer and released after its last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidencyPlan {
    /// Per-stage lists, in execution order.
    pub stages: Vec<StagePlan>,
}

/// Derives each stage's prefetch and evict lists from the graph's stage
/// order.
///
/// # Errors
///
/// [`PipelineError::Capacity`] if a single stage's own working set exceeds
/// `capacity_bytes` — no eviction order can make such a stage fit.
pub fn plan_residency(
    graph: &PipelineGraph,
    capacity_bytes: u64,
) -> Result<ResidencyPlan, PipelineError> {
    let _span = infs_trace::span!(
        "pipeline.plan_residency",
        graph = graph.name.as_str(),
        stages = graph.stages.len() as u64,
    );
    let working: Vec<Vec<u32>> = graph.stages.iter().map(|s| s.working_set()).collect();
    let mut last_use = vec![None; graph.tensors.len()];
    for (k, (st, set)) in graph.stages.iter().zip(&working).enumerate() {
        let need = set
            .iter()
            .map(|&t| graph.tensors[t as usize].size_bytes())
            .sum();
        if need > capacity_bytes {
            return Err(PipelineError::Capacity {
                stage: st.name.clone(),
                need,
                capacity: capacity_bytes,
            });
        }
        for &t in set {
            last_use[t as usize] = Some(k);
        }
    }

    let mut touched: BTreeSet<u32> = BTreeSet::new();
    let mut stages = Vec::with_capacity(working.len());
    for (k, set) in working.iter().enumerate() {
        touched.extend(set);
        let next = working.get(k + 1).map_or(&[][..], Vec::as_slice);
        let prefetch = next.iter().filter(|t| !touched.contains(t));
        let evict = set.iter().filter(|&&t| last_use[t as usize] == Some(k));
        stages.push(StagePlan {
            prefetch: prefetch.copied().collect(),
            evict: evict.copied().collect(),
        });
    }
    Ok(ResidencyPlan { stages })
}
