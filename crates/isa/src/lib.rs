//! Instruction-set layer: registers, operands, instructions, and assembly
//! parsers for the two ISAs covered by the paper — x86-64 (AT&T syntax, as
//! emitted by GCC/Clang/ICX) and AArch64 (as emitted by GCC/armclang),
//! including SVE. x86 listings may also be in Intel syntax.
//!
//! [`parse_kernel`] is the one entry point: it runs each line through its
//! dialect's parser in [`parse`] and returns the [`Kernel`] that every
//! predictor consumes.
//!
//! This crate is deliberately free of any microarchitectural knowledge: it
//! answers *what* an instruction is (operands, dataflow, ISA extension,
//! load/store/branch semantics), never *how fast* it is. Timing lives in the
//! `uarch` crate.
//!
//! # Example
//!
//! ```
//! use isa::{parse_kernel, Isa};
//!
//! let asm = r#"
//! .L2:
//!     vmovupd (%rsi,%rax), %zmm0
//!     vaddpd  (%rdx,%rax), %zmm0, %zmm1
//!     vmovupd %zmm1, (%rdi,%rax)
//!     addq    $64, %rax
//!     cmpq    %rcx, %rax
//!     jne     .L2
//! "#;
//! let kernel = parse_kernel(asm, Isa::X86).unwrap();
//! assert_eq!(kernel.instructions.len(), 6);
//! assert!(kernel.instructions[0].is_load());
//! assert!(kernel.instructions[2].is_store());
//! ```

pub mod dataflow;
pub mod ext;
pub mod inst;
pub mod kernel;
pub mod operand;
pub mod parse;
pub mod reg;

pub use ext::IsaExt;
pub use inst::{Instruction, Isa};
pub use kernel::{parse_kernel, Kernel};
pub use operand::{AddrMode, MemOperand, OpSig, Operand};
pub use parse::ParseError;
pub use reg::{RegClass, Register};
