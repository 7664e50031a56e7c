//! The residency planner: assigns intermediate tensors to L3 tile regions
//! across the stage sequence, spilling to host DRAM only when the capacity
//! model says the cache cannot hold them.

use crate::{PipelineError, PipelineGraph};
use std::collections::BTreeSet;

/// Residency decisions for one stage of the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePlan {
    /// Stage name (mirrors the graph).
    pub stage: String,
    /// Tensors resident in L3 while this stage executes (ascending).
    pub resident: Vec<u32>,
    /// Next stage's operands staged *during* this stage (the overlap win).
    pub prefetch: Vec<u32>,
    /// Tensors released after this stage (dead, or spilled to admit the next
    /// stage's working set).
    pub evict: Vec<u32>,
    /// Live tensors pushed back to host because L3 could not hold them
    /// alongside this stage's working set. They re-enter cold when next used.
    pub spilled: Vec<u32>,
    /// Peak bytes resident during the stage (working set + prefetched).
    pub resident_bytes: u64,
}

/// The full residency plan for a graph: the "only the current layer resident"
/// discipline of the paper's PointNet++ case study, generalized — a tensor
/// stays in L3 exactly from its producing stage to its last consuming stage,
/// unless capacity pressure spills it early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidencyPlan {
    /// L3 bytes the planner may occupy (compute ways only).
    pub capacity_bytes: u64,
    /// Per-stage decisions, in execution order.
    pub stages: Vec<StagePlan>,
}

impl ResidencyPlan {
    /// Total tensors spilled across all stages.
    pub fn spill_count(&self) -> u64 {
        self.stages.iter().map(|s| s.spilled.len() as u64).sum()
    }

    /// Peak bytes resident at any point of the schedule.
    pub fn peak_bytes(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.resident_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// Plans tensor residency for the graph against a byte capacity.
///
/// Walks stages in order keeping a resident set. Before each stage, live
/// tensors the cache cannot hold alongside the stage's working set are
/// spilled largest-first (appended to the *previous* stage's evict list so
/// the machine frees the space before the stage runs). After each stage,
/// tensors past their last use are evicted. Each stage's plan also names the
/// next stage's missing operands as its prefetch set, trimmed to what fits.
///
/// # Errors
///
/// [`PipelineError::Capacity`] if a single stage's own working set exceeds
/// the capacity — no spill order can make such a stage fit.
pub fn plan_residency(
    graph: &PipelineGraph,
    capacity_bytes: u64,
) -> Result<ResidencyPlan, PipelineError> {
    let mut span = infs_trace::span!(
        "pipeline.plan_residency",
        graph = graph.name.as_str(),
        stages = graph.stages.len() as u64,
    );
    let size = |t: &u32| graph.tensors[*t as usize].size_bytes();
    let bytes_of = |set: &BTreeSet<u32>| set.iter().map(size).sum::<u64>();
    let last_use: Vec<Option<usize>> = (0..graph.tensors.len() as u32)
        .map(|t| {
            graph
                .stages
                .iter()
                .rposition(|s| s.reads.contains(&t) || s.writes.contains(&t))
        })
        .collect();

    let mut resident: BTreeSet<u32> = BTreeSet::new();
    let mut stages: Vec<StagePlan> = Vec::with_capacity(graph.stages.len());
    for (k, st) in graph.stages.iter().enumerate() {
        let working: BTreeSet<u32> = st.working_set().into_iter().collect();
        let need: u64 = bytes_of(&working);
        if need > capacity_bytes {
            return Err(PipelineError::Capacity {
                stage: st.name.clone(),
                need,
                capacity: capacity_bytes,
            });
        }
        // Spill live non-working tensors, largest first, until the working
        // set fits next to what stays.
        let mut spilled: Vec<u32> = Vec::new();
        let mut carried: Vec<u32> = resident.difference(&working).copied().collect();
        carried.sort_by_key(|t| std::cmp::Reverse(size(t)));
        let mut occupied = need + carried.iter().map(size).sum::<u64>();
        for &t in &carried {
            if occupied <= capacity_bytes {
                break;
            }
            occupied -= size(&t);
            resident.remove(&t);
            spilled.push(t);
            if let Some(prev) = stages.last_mut() {
                prev.evict.push(t);
            }
        }
        spilled.sort_unstable();
        if let Some(prev) = stages.last_mut() {
            prev.evict.sort_unstable();
        }
        resident.extend(working.iter().copied());

        // Stage k's prefetch: stage k+1's operands not already resident,
        // admitted smallest-first while they fit on top of everything live
        // during stage k.
        let mut prefetch: Vec<u32> = Vec::new();
        let mut peak = bytes_of(&resident);
        if let Some(next) = graph.stages.get(k + 1) {
            let mut missing: Vec<u32> = next
                .working_set()
                .into_iter()
                .filter(|t| !resident.contains(t))
                .collect();
            missing.sort_by_key(size);
            for t in missing {
                if peak + size(&t) > capacity_bytes {
                    break;
                }
                peak += size(&t);
                prefetch.push(t);
            }
            prefetch.sort_unstable();
        }

        // Dead after this stage → evict. (Prefetched tensors are live for
        // stage k+1 by construction, so they never appear here.)
        let dead: Vec<u32> = resident
            .iter()
            .copied()
            .filter(|&t| last_use[t as usize] == Some(k))
            .collect();
        for &t in &dead {
            resident.remove(&t);
        }
        resident.extend(prefetch.iter().copied());

        stages.push(StagePlan {
            stage: st.name.clone(),
            resident: working.iter().copied().collect(),
            prefetch,
            evict: dead,
            spilled,
            resident_bytes: peak,
        });
    }
    span.arg(
        "spills",
        stages.iter().map(|s| s.spilled.len()).sum::<usize>(),
    );
    Ok(ResidencyPlan {
        capacity_bytes,
        stages,
    })
}
