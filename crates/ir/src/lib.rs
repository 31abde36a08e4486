//! # epic-ir
//!
//! The intermediate representation underlying the IMPACT EPIC reproduction
//! (ISCA'04, "Field-testing IMPACT EPIC research results in Itanium 2").
//!
//! This crate models IMPACT's *Lcode*: a low-level, **non-SSA**, virtual
//! register IR in which every operation may carry a *qualifying predicate*
//! (guard) and loads may be *control-speculative* with IA-64 NaT deferral
//! semantics. On top of the IR it provides:
//!
//! * CFG utilities and analyses: dominators ([`dom`]), natural loops
//!   ([`loops`]), liveness ([`liveness`]);
//! * a structural verifier ([`verify`]);
//! * a flat 64-bit [memory model](mem) shared with the simulator;
//! * a reference [interpreter](interp) that acts as the semantic oracle for
//!   differential testing and as the control-flow profiler.
//!
//! ## Example
//!
//! ```
//! use epic_ir::{builder::FuncBuilder, interp, Program, Operand, Opcode};
//!
//! let mut prog = Program::new();
//! let id = prog.add_func("main");
//! let mut b = FuncBuilder::new(id, "main");
//! let x = b.mov(20i64);
//! let y = b.binop(Opcode::Add, x, 22i64);
//! b.out(y);
//! b.ret(Some(Operand::Reg(y)));
//! prog.funcs[id.index()] = b.finish();
//! prog.entry = id;
//! prog.assign_layout();
//! let r = interp::run(&prog, &[], interp::InterpOptions::default()).unwrap();
//! assert_eq!(r.output, vec![42]);
//! ```

#![forbid(unsafe_code)]

pub mod bitset;
pub mod builder;
pub mod dom;
pub mod func;
pub mod interp;
pub mod liveness;
pub mod loops;
pub mod mem;
pub mod op;
pub mod profile;
pub mod testing;
pub mod types;
pub mod value;
pub mod verify;

pub use func::{Block, BlockOrigin, Function, Global, Program};
pub use op::Op;
pub use types::{BlockId, CmpKind, FuncId, GlobalId, MemSize, OpId, Opcode, Operand, Vreg};
pub use value::Value;
