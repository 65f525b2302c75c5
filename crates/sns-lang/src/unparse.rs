//! Unparser: renders an AST back to `little` source text.
//!
//! After live synchronization applies a substitution to the program, the
//! editor re-displays the *source code* with the new constants. The unparser
//! therefore preserves surface style: `def` sequences stay `def`s, `if`
//! stays `if`, annotations (`!`, `?`, `{lo-hi}`) are re-printed, and lists
//! are printed with brackets.
//!
//! The unparser guarantees a parse round-trip: `parse(unparse(e))` produces
//! an AST equal to `e` up to location identifiers (locations are fresh on
//! every parse). This property is checked by tests in this module and by
//! property-based tests in the crate's test suite.

use crate::ast::{Expr, FreezeAnnotation, LetStyle, NumLit, Pat};
use crate::fmt_num;
use crate::subst::Subst;

/// Renders an expression as `little` source text.
///
/// # Examples
///
/// ```
/// let parsed = sns_lang::parse("(def x 50) (+ x 1!)").unwrap();
/// assert_eq!(sns_lang::unparse(&parsed.expr), "(def x 50) (+ x 1!)");
/// ```
pub fn unparse(expr: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr, true, None);
    out
}

/// Renders `expr` as if `rho` had been applied to it first: equal to
/// `unparse(&rho.applied(expr))`, without copying the AST. This is how a
/// drag previews the updated program text.
///
/// # Examples
///
/// ```
/// use sns_lang::{parse, unparse_with, LocId, Subst};
///
/// let parsed = parse("(+ 50 (* 2 30))").unwrap();
/// let rho = Subst::from_pairs([(LocId(2), 52.5)]);
/// assert_eq!(unparse_with(&parsed.expr, &rho), "(+ 50 (* 2 52.5))");
/// ```
pub fn unparse_with(expr: &Expr, rho: &Subst) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr, true, Some(rho));
    out
}

/// Renders a pattern as `little` source text.
pub fn unparse_pat(pat: &Pat) -> String {
    let mut out = String::new();
    write_pat(&mut out, pat);
    out
}

/// Renders a numeric literal with its annotations, e.g. `12!{3-30}`.
pub fn unparse_num(n: &NumLit) -> String {
    let mut s = String::new();
    write_num(&mut s, n, n.value);
    s
}

/// Writes literal `n` with `value` in place of its own, keeping its
/// annotations.
fn write_num(out: &mut String, n: &NumLit, value: f64) {
    out.push_str(&fmt_num(value));
    match n.annotation {
        FreezeAnnotation::None => {}
        FreezeAnnotation::Frozen => out.push('!'),
        FreezeAnnotation::Thawed => out.push('?'),
    }
    if let Some((lo, hi)) = n.range {
        out.push('{');
        out.push_str(&fmt_num(lo));
        out.push('-');
        out.push_str(&fmt_num(hi));
        out.push('}');
    }
}

fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('\'');
    for c in s.chars() {
        match c {
            '\'' => out.push_str("\\'"),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('\'');
    out
}

/// `top` is true only in def-sequence position, where `(def p e) rest` is
/// printed as consecutive forms rather than nested parens. `rho`, when
/// given, overrides the value of every literal whose location it binds.
fn write_expr(out: &mut String, expr: &Expr, top: bool, rho: Option<&Subst>) {
    match expr {
        Expr::Num(n) => write_num(out, n, rho.and_then(|r| r.get(n.loc)).unwrap_or(n.value)),
        Expr::Str(s) => out.push_str(&escape_str(s)),
        Expr::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Expr::Var(x) => out.push_str(x),
        Expr::List(elems, tail) => {
            out.push('[');
            for (i, e) in elems.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                write_expr(out, e, false, rho);
            }
            if let Some(t) = tail {
                out.push('|');
                write_expr(out, t, false, rho);
            }
            out.push(']');
        }
        Expr::Lambda(params, body) => {
            out.push_str("(λ");
            if params.len() == 1 {
                out.push(' ');
                write_pat(out, &params[0]);
            } else {
                out.push('(');
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    write_pat(out, p);
                }
                out.push(')');
            }
            out.push(' ');
            write_expr(out, body, false, rho);
            out.push(')');
        }
        Expr::App(head, args) => {
            out.push('(');
            write_expr(out, head, false, rho);
            for a in args {
                out.push(' ');
                write_expr(out, a, false, rho);
            }
            out.push(')');
        }
        Expr::Prim(op, args) => {
            out.push('(');
            out.push_str(op.name());
            for a in args {
                out.push(' ');
                write_expr(out, a, false, rho);
            }
            out.push(')');
        }
        Expr::Let {
            recursive,
            style,
            pat,
            bound,
            body,
        } => {
            let is_def = top && *style == LetStyle::Def;
            if is_def {
                out.push('(');
                out.push_str(if *recursive { "defrec" } else { "def" });
                out.push(' ');
                write_pat(out, pat);
                out.push(' ');
                write_expr(out, bound, false, rho);
                out.push_str(") ");
                write_expr(out, body, true, rho);
            } else {
                out.push('(');
                out.push_str(if *recursive { "letrec" } else { "let" });
                out.push(' ');
                write_pat(out, pat);
                out.push(' ');
                write_expr(out, bound, false, rho);
                out.push(' ');
                write_expr(out, body, false, rho);
                out.push(')');
            }
        }
        Expr::If(c, t, e) => {
            out.push_str("(if ");
            write_expr(out, c, false, rho);
            out.push(' ');
            write_expr(out, t, false, rho);
            out.push(' ');
            write_expr(out, e, false, rho);
            out.push(')');
        }
        Expr::Case(scrut, branches) => {
            out.push_str("(case ");
            write_expr(out, scrut, false, rho);
            for (p, e) in branches {
                out.push_str(" (");
                write_pat(out, p);
                out.push(' ');
                write_expr(out, e, false, rho);
                out.push(')');
            }
            out.push(')');
        }
    }
}

fn write_pat(out: &mut String, pat: &Pat) {
    match pat {
        Pat::Var(x) => out.push_str(x),
        Pat::Num(n) => out.push_str(&fmt_num(*n)),
        Pat::Str(s) => out.push_str(&escape_str(s)),
        Pat::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Pat::List(elems, tail) => {
            out.push('[');
            for (i, p) in elems.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                write_pat(out, p);
            }
            if let Some(t) = tail {
                out.push('|');
                write_pat(out, t);
            }
            out.push(']');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// Strips locations so ASTs from different parses can be compared.
    fn strip_locs(e: &mut Expr) {
        e.walk_mut(&mut |e| {
            if let Expr::Num(n) = e {
                n.loc = crate::LocId(0);
            }
        });
    }

    fn roundtrip(src: &str) {
        let mut e1 = parse(src).unwrap().expr;
        let printed = unparse(&e1);
        let mut e2 = parse(&printed)
            .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"))
            .expr;
        strip_locs(&mut e1);
        strip_locs(&mut e2);
        assert_eq!(e1, e2, "round-trip changed the AST for `{src}`");
    }

    #[test]
    fn roundtrips_representative_programs() {
        roundtrip("(+ 1 2)");
        roundtrip("(def x 50) (def y 60!) (+ x y)");
        roundtrip("(defrec f (λ n (if (< n 1) 0 (f (- n 1))))) (f 10)");
        roundtrip("[1 2 3]");
        roundtrip("[1 2|rest]");
        roundtrip("(case xs ([] 0) ([x|r] x))");
        roundtrip("(λ(a b) [a b])");
        roundtrip("12!{3-30}");
        roundtrip("0!{-3.14-3.14}");
        roundtrip("'hello world'");
        roundtrip("(let [a b] [1 2] (* a b))");
    }

    #[test]
    fn def_style_is_preserved() {
        let src = "(def x 5) (svg x)";
        let e = parse(src).unwrap().expr;
        assert_eq!(unparse(&e), "(def x 5) (svg x)");
    }

    #[test]
    fn let_style_is_preserved() {
        let src = "(let x 5 x)";
        let e = parse(src).unwrap().expr;
        assert_eq!(unparse(&e), "(let x 5 x)");
    }

    #[test]
    fn annotations_are_reprinted() {
        let e = parse("3.14!").unwrap().expr;
        assert_eq!(unparse(&e), "3.14!");
        let e = parse("0.5?").unwrap().expr;
        assert_eq!(unparse(&e), "0.5?");
        let e = parse("5{0-10}").unwrap().expr;
        assert_eq!(unparse(&e), "5{0-10}");
    }

    #[test]
    fn unparse_with_overrides_bound_literals_only() {
        let e = parse("(def x 5!{0-10}) [x 7 x]").unwrap().expr;
        let rho = crate::Subst::from_pairs([(crate::LocId(0), 8.5), (crate::LocId(9), 1.0)]);
        assert_eq!(unparse_with(&e, &rho), "(def x 8.5!{0-10}) [x 7 x]");
        assert_eq!(unparse_with(&e, &rho), unparse(&rho.applied(&e)));
        assert_eq!(unparse_with(&e, &crate::Subst::new()), unparse(&e));
    }

    #[test]
    fn strings_with_quotes_escape() {
        roundtrip(r"'it\'s'");
    }
}
