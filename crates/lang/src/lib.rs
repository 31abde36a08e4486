//! # epic-lang
//!
//! MiniC: the small C-like language the IMPACT EPIC reproduction compiles,
//! standing in for the paper's C frontend (Pcode generation + lowering in
//! Fig. 4 of the paper). The twelve SPECint2000 stand-in workloads are
//! written in MiniC; see `epic-workloads`.
//!
//! ## Language summary
//!
//! * Types: `int` (i64), `byte` (u8, zero-extending), `*T`, `[T; N]`,
//!   named structs. Pointer arithmetic scales by the pointee size.
//! * Items: `fn name(a: int, p: *Node) -> int { .. }`,
//!   `struct Node { next: *Node, val: int }`,
//!   `global table: [int; 64] = [1, 2, 3];`
//! * Statements: `let`, assignment to lvalues (`x`, `*p`, `a[i]`, `p.f`),
//!   `if`/`else`, `while`, `break`, `continue`, `return`.
//! * Builtins: `out(v)` (observable output stream), `alloc(nbytes)` (heap
//!   bump allocation, returns an address as `int`), `icall(fp, args...)`
//!   (indirect call through a function value; a bare function name
//!   evaluates to its address).
//! * Aggregate locals are not supported: use globals or `alloc`.
//!
//! ## Example
//!
//! ```
//! let prog = epic_lang::compile(
//!     "fn main() -> int {
//!          let s = 0;
//!          let i = 0;
//!          while i < 10 { s = s + i; i = i + 1; }
//!          out(s);
//!          return s;
//!      }",
//! ).unwrap();
//! let r = epic_ir::interp::run(&prog, &[], Default::default()).unwrap();
//! assert_eq!(r.output, vec![45]);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use lexer::LangError;
pub use lower::compile;

#[cfg(test)]
mod tests {
    use epic_ir::interp::{run, InterpOptions};

    fn run_src(src: &str, args: &[i64]) -> Vec<u64> {
        let prog = super::compile(src).unwrap();
        run(&prog, args, InterpOptions::default()).unwrap().output
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(
            run_src(
                "fn main() { out(1 + 2 * 3); out(10 % 4); out(7 / 2); out(-5 / 2); }",
                &[]
            ),
            vec![7, 2, 3, (-2i64) as u64]
        );
    }

    #[test]
    fn bitwise_and_shifts() {
        assert_eq!(
            run_src(
                "fn main() { out(6 & 3); out(6 | 3); out(6 ^ 3); out(1 << 10); out(-8 >> 1); out(~0); }",
                &[]
            ),
            vec![
                2,
                7,
                5,
                1024,
                ((-8i64 as u64) >> 1),
                u64::MAX
            ]
        );
    }

    #[test]
    fn comparisons_yield_01() {
        assert_eq!(
            run_src(
                "fn main() { out(3 < 4); out(4 <= 3); out(-1 < 1); out(!0); out(!7); }",
                &[]
            ),
            vec![1, 0, 1, 1, 0]
        );
    }

    #[test]
    fn short_circuit_evaluation() {
        // boom() would trap via wild deref if called; && must skip it.
        let out = run_src(
            "fn boom() -> int { let p = 16 as *int; return *p; }
             fn main() {
                 let x = 0;
                 if x != 0 && boom() != 0 { out(1); } else { out(2); }
                 if x == 0 || boom() != 0 { out(3); }
                 out(x != 0 && 1 == 1);
             }",
            &[],
        );
        assert_eq!(out, vec![2, 3, 0]);
    }

    #[test]
    fn while_with_break_continue() {
        assert_eq!(
            run_src(
                "fn main() {
                     let i = 0; let s = 0;
                     while 1 {
                         i = i + 1;
                         if i > 10 { break; }
                         if i % 2 == 0 { continue; }
                         s = s + i;
                     }
                     out(s);
                 }",
                &[]
            ),
            vec![25]
        );
    }

    #[test]
    fn functions_recursion() {
        assert_eq!(
            run_src(
                "fn fib(n: int) -> int {
                     if n < 2 { return n; }
                     return fib(n - 1) + fib(n - 2);
                 }
                 fn main() { out(fib(15)); }",
                &[]
            ),
            vec![610]
        );
    }

    #[test]
    fn globals_arrays_and_init() {
        assert_eq!(
            run_src(
                "global tab: [int; 8] = [5, 10, 15];
                 global sum: int;
                 fn main() {
                     let i = 0;
                     while i < 8 { sum = sum + tab[i]; i = i + 1; }
                     out(sum);
                     tab[7] = 100;
                     out(tab[7]);
                 }",
                &[]
            ),
            vec![30, 100]
        );
    }

    #[test]
    fn byte_arrays_zero_extend() {
        assert_eq!(
            run_src(
                "global buf: [byte; 16];
                 fn main() {
                     buf[0] = 300;     // truncates to 44
                     out(buf[0]);
                     buf[1] = 255;
                     out(buf[1] + 1);  // zero-extended
                 }",
                &[]
            ),
            vec![44, 256]
        );
    }

    #[test]
    fn structs_pointers_heap() {
        assert_eq!(
            run_src(
                "struct Node { next: *Node, val: int }
                 fn main() {
                     let a = alloc(16) as *Node;
                     let b = alloc(16) as *Node;
                     a.val = 1; a.next = b;
                     b.val = 2; b.next = 0 as *Node;
                     let p = a;
                     let s = 0;
                     while p as int != 0 { s = s + p.val; p = p.next; }
                     out(s);
                 }",
                &[]
            ),
            vec![3]
        );
    }

    #[test]
    fn pointer_arithmetic_scales() {
        assert_eq!(
            run_src(
                "global arr: [int; 4] = [10, 20, 30, 40];
                 fn main() {
                     let p = &arr[0];
                     out(*(p + 2));
                     let q = p + 3;
                     out(q - p);
                 }",
                &[]
            ),
            vec![30, 3]
        );
    }

    #[test]
    fn address_of_local_and_call_by_pointer() {
        assert_eq!(
            run_src(
                "fn bump(p: *int) { *p = *p + 1; }
                 fn main() {
                     let x = 41;
                     bump(&x);
                     out(x);
                 }",
                &[]
            ),
            vec![42]
        );
    }

    #[test]
    fn indirect_calls() {
        assert_eq!(
            run_src(
                "fn double(x: int) -> int { return 2 * x; }
                 fn triple(x: int) -> int { return 3 * x; }
                 fn main() {
                     let fp = double;
                     out(icall(fp, 21));
                     fp = triple;
                     out(icall(fp, 5));
                 }",
                &[]
            ),
            vec![42, 15]
        );
    }

    #[test]
    fn main_receives_args() {
        let prog = super::compile("fn main(a: int, b: int) { out(a * b); }").unwrap();
        let r = run(&prog, &[6, 7], InterpOptions::default()).unwrap();
        assert_eq!(r.output, vec![42]);
    }

    #[test]
    fn nested_field_chains() {
        assert_eq!(
            run_src(
                "struct Inner { v: int }
                 struct Outer { in_: Inner, p: *Inner }
                 global o: Outer;
                 global i2: Inner;
                 fn main() {
                     o.in_.v = 5;
                     o.p = &i2;
                     o.p.v = 7;
                     out(o.in_.v + i2.v);
                 }",
                &[]
            ),
            vec![12]
        );
    }

    #[test]
    fn semantic_errors_reported() {
        assert!(super::compile("fn main() { out(nosuch); }").is_err());
        assert!(super::compile("fn main() { nosuchfn(); }").is_err());
        assert!(super::compile("fn f() {}").is_err()); // no main
        assert!(super::compile("fn main() { break; }").is_err());
    }

    #[test]
    fn unreachable_code_after_return_is_tolerated() {
        assert_eq!(
            run_src("fn main() { out(1); return; out(2); }", &[]),
            vec![1]
        );
    }
}
