//! The engine set, and the one dispatch from an engine name to its entry
//! point.
//!
//! The paper runs one physical plan on several execution models; this
//! workspace has five.  [`Engine`] names them once — for the wire protocol,
//! the differential harness and the benchmark figures — and [`execute`] is
//! the only place a name turns into a call.  Every engine takes the same
//! [`ExecOptions`], so callers vary the execution model and nothing else.

use hique_dsm::DsmDatabase;
use hique_holistic::{ExecOptions, GeneratedQuery};
use hique_iter::ExecMode;
use hique_plan::PhysicalPlan;
use hique_storage::Catalog;
use hique_types::{HiqueError, QueryResult, Result};
use hique_vm::{CompileMode, VmProgram};

/// One of the five execution models that run a shared physical plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Generic Volcano iterators.
    IterGeneric,
    /// Type-specialized iterators.
    IterOptimized,
    /// Column-at-a-time DSM engine.
    Dsm,
    /// Holistic generated kernels (the paper's engine).
    Holistic,
    /// Query-time-compiled bytecode interpreted by the register VM.
    Vm,
}

impl Engine {
    /// Every engine.  Generic iterators come first: they are the baseline
    /// the differential harness compares the others against.
    pub const ALL: [Engine; 5] = [
        Engine::IterGeneric,
        Engine::IterOptimized,
        Engine::Dsm,
        Engine::Holistic,
        Engine::Vm,
    ];

    /// Stable lowercase name (wire protocol `.engine` argument).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::IterGeneric => "iter-generic",
            Engine::IterOptimized => "iter-optimized",
            Engine::Dsm => "dsm",
            Engine::Holistic => "holistic",
            Engine::Vm => "vm",
        }
    }

    /// Legend label in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Engine::IterGeneric => "Generic Iterators",
            Engine::IterOptimized => "Optimized Iterators",
            Engine::Dsm => "MonetDB-class (DSM)",
            Engine::Holistic => "HIQUE",
            Engine::Vm => "HIQUE bytecode VM",
        }
    }

    /// Parse an engine name.
    pub fn parse(name: &str) -> Result<Engine> {
        Engine::ALL
            .into_iter()
            .find(|e| e.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Engine::ALL.iter().map(Engine::name).collect();
                HiqueError::Unsupported(format!(
                    "unknown engine '{name}' (expected one of: {})",
                    names.join(", ")
                ))
            })
    }
}

/// A plan compiled for every engine: the generated kernel program, which
/// carries the plan itself, and its specialized bytecode.
pub struct Compiled {
    /// The holistic kernel program.
    pub generated: GeneratedQuery,
    /// Its bytecode lowering with constants folded to immediates.
    pub vm: VmProgram,
}

impl Compiled {
    /// Generate the kernel program for `plan` and lower it to bytecode.
    pub fn new(plan: &PhysicalPlan, catalog: &Catalog) -> Result<Compiled> {
        let generated = hique_holistic::generate(plan)?;
        let vm = hique_vm::compile(&generated, catalog, CompileMode::Specialized)?;
        Ok(Compiled { generated, vm })
    }
}

/// Execute one prepared plan on `engine`.
///
/// `generated` is the kernel program rendered from the plan; it carries the
/// plan the iterator and DSM engines run.  `vm` is its bytecode lowering,
/// which only [`Engine::Vm`] reads.  `dsm` is the column decomposition of
/// `catalog`.
pub fn execute(
    engine: Engine,
    generated: &GeneratedQuery,
    vm: Option<&VmProgram>,
    catalog: &Catalog,
    dsm: &DsmDatabase,
    options: &ExecOptions,
) -> Result<QueryResult> {
    let plan = generated.plan();
    match engine {
        Engine::IterGeneric => hique_iter::execute(plan, catalog, ExecMode::Generic, options),
        Engine::IterOptimized => hique_iter::execute(plan, catalog, ExecMode::Optimized, options),
        Engine::Dsm => hique_dsm::execute(plan, dsm, options),
        Engine::Holistic => generated.execute_with(catalog, options),
        Engine::Vm => match vm {
            Some(program) => program.execute(generated, catalog, options),
            None => Err(HiqueError::Unsupported(
                "query has no bytecode lowering (vm engine)".into(),
            )),
        },
    }
}
