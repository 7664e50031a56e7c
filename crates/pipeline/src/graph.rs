//! The program-level graph IR: kernels as nodes, named tensors as edges.

use crate::PipelineError;
use infs_frontend::{kernel_io, Kernel, KernelBuilder, TensorTable};
use infs_sdfg::{ArrayDecl, ArrayId, DataType};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One kernel node of a [`PipelineGraph`].
///
/// The `reads`/`writes` edge lists are *derived* from the kernel at build
/// time ([`infs_frontend::kernel_io`]) and re-derived by the validator — a
/// serialized stage whose lists disagree with its kernel is rejected, so the
/// planner can trust the edges without re-walking kernels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Stage name (must equal the kernel's region name; unique per graph).
    pub name: String,
    /// The loop-nest kernel this stage executes.
    pub kernel: Kernel,
    /// Concrete symbol bindings the stage instantiates with.
    pub syms: Vec<i64>,
    /// Runtime `f32` parameters passed on entry.
    pub params: Vec<f32>,
    /// Run the e-graph optimizer when compiling this stage.
    pub optimize: bool,
    /// Tensors this stage loads (ascending, deduplicated).
    pub reads: Vec<u32>,
    /// Tensors this stage stores (ascending, deduplicated).
    pub writes: Vec<u32>,
}

impl StageSpec {
    /// The stage's working set: reads ∪ writes, ascending.
    pub fn working_set(&self) -> Vec<u32> {
        let mut w: Vec<u32> = self.reads.iter().chain(&self.writes).copied().collect();
        w.sort_unstable();
        w.dedup();
        w
    }
}

/// A multi-kernel model graph: an ordered list of kernel stages chained by
/// named tensors from one shared table.
///
/// The order is the execution order; the validator enforces that it is a
/// topological order of the tensor dataflow (producer before consumer, one
/// producer per tensor), which makes the graph acyclic by construction.
/// Serializable end to end, so a whole graph travels the serve wire and is
/// content-addressed as one artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineGraph {
    /// Graph name (diagnostics, artifact labels).
    pub name: String,
    /// The shared tensor table; index `i` is `ArrayId(i)` in every stage.
    pub tensors: Vec<ArrayDecl>,
    /// Kernel stages in execution order.
    pub stages: Vec<StageSpec>,
}

impl PipelineGraph {
    /// Structural validation: shared-table agreement, derived-edge honesty,
    /// single producer per tensor, and producer-before-consumer order.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Invalid`] naming the first violated rule.
    pub fn validate(&self) -> Result<(), PipelineError> {
        let invalid = |what: String| Err(PipelineError::Invalid(what));
        if self.name.is_empty() {
            return invalid("graph has an empty name".into());
        }
        if self.stages.is_empty() {
            return invalid(format!("graph '{}' has no stages", self.name));
        }
        // Whole-graph producer map first, so a read of a tensor written by a
        // *later* stage is a detectable ordering violation rather than being
        // mistaken for a graph input.
        let mut producer: HashMap<u32, usize> = HashMap::new();
        for (k, st) in self.stages.iter().enumerate() {
            for &t in &st.writes {
                if t as usize >= self.tensors.len() {
                    return invalid(format!(
                        "stage '{}' writes tensor {t}, table has {}",
                        st.name,
                        self.tensors.len()
                    ));
                }
                if let Some(&j) = producer.get(&t) {
                    return invalid(format!(
                        "tensor {t} ('{}') has two producers: stages {j} and {k}",
                        self.tensors[t as usize].name
                    ));
                }
                producer.insert(t, k);
            }
        }
        let mut seen_names: HashMap<&str, usize> = HashMap::new();
        for (k, st) in self.stages.iter().enumerate() {
            if st.name != st.kernel.name() {
                return invalid(format!(
                    "stage {k} is named '{}' but its kernel is '{}'",
                    st.name,
                    st.kernel.name()
                ));
            }
            if let Some(prev) = seen_names.insert(&st.name, k) {
                return invalid(format!(
                    "stage name '{}' used by stages {prev} and {k}",
                    st.name
                ));
            }
            // Shared-table agreement covers edge shape/dtype compatibility:
            // every stage addresses the same declarations, so a reader and a
            // writer of tensor `t` see one shape and one element type.
            if st.kernel.arrays() != self.tensors.as_slice() {
                return invalid(format!(
                    "stage '{}' declares a different array table than the graph",
                    st.name
                ));
            }
            if st.syms.len() != st.kernel.syms().len() {
                return invalid(format!(
                    "stage '{}' binds {} symbols, kernel declares {}",
                    st.name,
                    st.syms.len(),
                    st.kernel.syms().len()
                ));
            }
            let io = kernel_io(&st.kernel);
            if io.reads != st.reads || io.writes != st.writes {
                return invalid(format!(
                    "stage '{}' edge lists disagree with its kernel \
                     (reads {:?} vs derived {:?}, writes {:?} vs derived {:?})",
                    st.name, st.reads, io.reads, st.writes, io.writes
                ));
            }
            for &t in &st.reads {
                match producer.get(&t) {
                    // Never-written tensors are graph inputs; tensors this
                    // same stage writes are read-modify-write self-edges.
                    None => {}
                    Some(&j) if j <= k => {}
                    Some(&j) => {
                        return invalid(format!(
                            "stage '{}' (index {k}) reads tensor {t} ('{}') produced \
                             by later stage {j} — stages are not in dataflow order",
                            st.name, self.tensors[t as usize].name
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The producing stage index of a tensor, if any stage writes it.
    pub fn producer(&self, tensor: u32) -> Option<usize> {
        self.stages.iter().position(|s| s.writes.contains(&tensor))
    }

    /// Graph inputs: tensors some stage reads but no stage writes.
    pub fn inputs(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .stages
            .iter()
            .flat_map(|s| s.reads.iter().copied())
            .filter(|&t| self.producer(t).is_none())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Intermediates and outputs: tensors some stage writes.
    pub fn produced(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .stages
            .iter()
            .flat_map(|s| s.writes.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Serializes the graph to JSON (the wire and artifact encoding).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Invalid`] if serialization fails.
    pub fn to_json(&self) -> Result<String, PipelineError> {
        serde_json::to_string(self).map_err(|e| PipelineError::Invalid(e.to_string()))
    }

    /// Deserializes a graph from JSON. Does **not** validate; callers gate
    /// untrusted graphs through [`PipelineGraph::validate`] (the serving
    /// layer and `infs_check::validate_pipeline` both do).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Invalid`] on malformed JSON.
    pub fn from_json(s: &str) -> Result<Self, PipelineError> {
        serde_json::from_str(s).map_err(|e| PipelineError::Invalid(e.to_string()))
    }

    /// A stable 64-bit content key (FNV-1a over the canonical JSON encoding):
    /// the pipeline-level artifact-cache key — two graphs that serialize
    /// identically compile identically.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Invalid`] if the graph cannot be serialized.
    pub fn content_key(&self) -> Result<u64, PipelineError> {
        let mut hash = infs_isa::Fnv1a::new();
        serde_json::to_writer(&mut hash, self)
            .map_err(|e| PipelineError::Invalid(e.to_string()))?;
        Ok(hash.finish())
    }
}

/// Incremental builder for a [`PipelineGraph`]: declare the shared tensor
/// table first, then add kernel stages in execution order.
#[derive(Debug, Default)]
pub struct PipelineBuilder {
    name: String,
    tensors: TensorTable,
    stages: Vec<StageSpec>,
}

impl PipelineBuilder {
    /// A builder with an empty tensor table.
    pub fn new(name: impl Into<String>) -> Self {
        PipelineBuilder {
            name: name.into(),
            tensors: TensorTable::new(),
            stages: Vec::new(),
        }
    }

    /// A builder over a pre-populated table (workloads that already maintain
    /// a shared array table hand it over instead of re-declaring).
    pub fn with_table(name: impl Into<String>, tensors: TensorTable) -> Self {
        PipelineBuilder {
            name: name.into(),
            tensors,
            stages: Vec::new(),
        }
    }

    /// Declares an `f32` tensor.
    pub fn tensor(&mut self, name: impl Into<String>, shape: Vec<u64>) -> ArrayId {
        self.tensors.tensor(name, shape)
    }

    /// Declares a tensor with an explicit element type.
    pub fn tensor_typed(
        &mut self,
        name: impl Into<String>,
        shape: Vec<u64>,
        dtype: DataType,
    ) -> ArrayId {
        self.tensors.tensor_typed(name, shape, dtype)
    }

    /// The table declared so far.
    pub fn tensors(&self) -> &TensorTable {
        &self.tensors
    }

    /// A fresh kernel builder with the whole table pre-declared — build the
    /// stage's loops and statements on it, then [`add_stage`](Self::add_stage)
    /// the result. Declare **all** tensors before the first `kernel` call:
    /// later declarations would not exist in earlier kernels' tables.
    pub fn kernel(&self, name: impl Into<String>, dtype: DataType) -> KernelBuilder {
        self.tensors.kernel(name, dtype)
    }

    /// Appends a stage, deriving its read/write edges from the kernel.
    pub fn add_stage(&mut self, kernel: Kernel, syms: Vec<i64>, params: Vec<f32>, optimize: bool) {
        let io = kernel_io(&kernel);
        self.stages.push(StageSpec {
            name: kernel.name().to_string(),
            kernel,
            syms,
            params,
            optimize,
            reads: io.reads,
            writes: io.writes,
        });
    }

    /// Freezes and validates the graph.
    ///
    /// # Errors
    ///
    /// As [`PipelineGraph::validate`].
    pub fn build(self) -> Result<PipelineGraph, PipelineError> {
        let g = PipelineGraph {
            name: self.name,
            tensors: self.tensors.decls().to_vec(),
            stages: self.stages,
        };
        g.validate()?;
        Ok(g)
    }
}
