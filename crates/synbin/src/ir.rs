//! The typed mini-program IR the synthetic compiler lowers.
//!
//! Programs are deliberately C-shaped: functions with typed parameters
//! and locals, assignments, member accesses, pointer dereferences,
//! calls, branches and loops. The IR never executes — its only job is
//! to drive a code generator whose per-type instruction idioms match
//! what GCC/Clang emit, so the paper's learning problem is preserved.

use cati_dwarf::{CType, TypeTable};
use serde::{Deserialize, Serialize};

/// Index of a local (or parameter) within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LocalId(pub u32);

/// Index of a function within its program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FuncId(pub u32);

/// A call target: another function in this program, or an external
/// library routine that will resolve to a PLT symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Callee {
    /// Intra-program call.
    Local(FuncId),
    /// External routine, by index into [`Program::externs`].
    Extern(u32),
}

/// A typed local variable or parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Local {
    /// Source name (`v0`, `buf`, ...).
    pub name: String,
    /// Declared type; typedef chains preserved for the labeler.
    pub ty: CType,
}

/// Second operand of a binary operation or comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand2 {
    /// Immediate constant.
    Const(i64),
    /// Another local.
    Local(LocalId),
}

/// Binary arithmetic/logic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `<<`
    Shl,
    /// `>>` (arithmetic for signed, logical for unsigned).
    Shr,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Right-hand side of an assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Rhs {
    /// `dst = <const>`.
    Const(i64),
    /// `dst = src` (same-type copy or an implicit integer cast, which
    /// lowers to `movsx`/`movzx` when widths differ).
    Local(LocalId),
    /// `dst = a <op> b`.
    Bin(BinOp, LocalId, Operand2),
    /// `dst = -a` / `dst = ~a`.
    Neg(LocalId),
    /// `dst = f(args...)` (return value used).
    Call(Callee, Vec<LocalId>),
    /// `dst = &local` — materializes a pointer with `lea`.
    AddrOf(LocalId),
    /// `dst = *ptr`.
    Deref(LocalId),
    /// `dst = ptr->member` at byte `offset` with the member's type.
    MemberOfPtr(LocalId, u32, CType),
    /// `dst = base.member` where `base` is a struct local.
    Member(LocalId, u32, CType),
    /// `dst = (cond)` — a comparison materialized into a bool.
    Cmp(CmpOp, LocalId, Operand2),
    /// `dst = base[index]` — `base` is an array local; lowers to a
    /// scaled effective address (`mov disp(%rsp,%rdx,4),%eax`).
    LoadIndexed {
        /// Array local.
        base: LocalId,
        /// Integer index local.
        index: LocalId,
        /// Element type.
        elem_ty: CType,
    },
}

/// A condition `lhs <op> rhs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cond {
    /// Left operand.
    pub lhs: LocalId,
    /// Comparison.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Operand2,
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// `dst = rhs`.
    Assign {
        /// Destination local.
        dst: LocalId,
        /// Value expression.
        rhs: Rhs,
    },
    /// `*ptr = src`.
    StoreDeref {
        /// Pointer local.
        ptr: LocalId,
        /// Value stored (a local or a constant).
        src: Operand2,
    },
    /// `base.member = src` — `base` is a struct (or struct array)
    /// local; the store's width comes from `member_ty`.
    StoreMember {
        /// Struct local.
        base: LocalId,
        /// Member byte offset (may include an array element offset).
        offset: u32,
        /// Member type.
        member_ty: CType,
        /// Stored value.
        src: Operand2,
    },
    /// `ptr->member = src`.
    StoreMemberPtr {
        /// Pointer-to-struct local.
        ptr: LocalId,
        /// Member byte offset.
        offset: u32,
        /// Member type.
        member_ty: CType,
        /// Stored value.
        src: Operand2,
    },
    /// `if (cond) { then } else { els }`.
    If {
        /// Branch condition.
        cond: Cond,
        /// Taken body.
        then_body: Vec<Stmt>,
        /// Else body (may be empty).
        else_body: Vec<Stmt>,
    },
    /// `while (cond) { body }`.
    While {
        /// Loop condition.
        cond: Cond,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `base[index] = src` — scaled-index store into an array local.
    StoreIndexed {
        /// Array local.
        base: LocalId,
        /// Integer index local.
        index: LocalId,
        /// Element type.
        elem_ty: CType,
        /// Stored value.
        src: Operand2,
    },
    /// `f(args...)` with the result discarded.
    CallStmt {
        /// Call target.
        callee: Callee,
        /// Arguments (locals).
        args: Vec<LocalId>,
    },
    /// `return [val]`.
    Return(Option<LocalId>),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Name.
    pub name: String,
    /// Number of leading locals that are parameters.
    pub num_params: u32,
    /// All locals; the first `num_params` are parameters.
    pub locals: Vec<Local>,
    /// Return type (`None` = void).
    pub ret: Option<CType>,
    /// Body.
    pub body: Vec<Stmt>,
}

impl Function {
    /// The local record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn local(&self, id: LocalId) -> &Local {
        &self.locals[id.0 as usize]
    }

    /// Whether `id` is a parameter.
    pub fn is_param(&self, id: LocalId) -> bool {
        id.0 < self.num_params
    }

    /// Iterates over all statements, recursing into branch and loop
    /// bodies.
    pub fn walk_stmts(&self) -> Vec<&Stmt> {
        fn rec<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a Stmt>) {
            for s in stmts {
                out.push(s);
                match s {
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        rec(then_body, out);
                        rec(else_body, out);
                    }
                    Stmt::While { body, .. } => rec(body, out),
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        rec(&self.body, &mut out);
        out
    }
}

/// An external routine the program may call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExternFunc {
    /// Link name (e.g. `memchr`).
    pub name: String,
}

/// A whole program: the translation unit handed to the compiler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Program (binary) name.
    pub name: String,
    /// Struct/enum definition tables.
    pub types: TypeTable,
    /// Function definitions.
    pub functions: Vec<Function>,
    /// External routines referenced by calls.
    pub externs: Vec<ExternFunc>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_recurses_into_bodies() {
        let f = Function {
            name: "f".into(),
            num_params: 0,
            locals: vec![Local {
                name: "a".into(),
                ty: CType::int(),
            }],
            ret: None,
            body: vec![
                Stmt::Assign {
                    dst: LocalId(0),
                    rhs: Rhs::Const(1),
                },
                Stmt::If {
                    cond: Cond {
                        lhs: LocalId(0),
                        op: CmpOp::Eq,
                        rhs: Operand2::Const(0),
                    },
                    then_body: vec![Stmt::Assign {
                        dst: LocalId(0),
                        rhs: Rhs::Const(2),
                    }],
                    else_body: vec![Stmt::While {
                        cond: Cond {
                            lhs: LocalId(0),
                            op: CmpOp::Lt,
                            rhs: Operand2::Const(9),
                        },
                        body: vec![Stmt::Return(None)],
                    }],
                },
            ],
        };
        assert_eq!(f.walk_stmts().len(), 5);
        assert!(!f.is_param(LocalId(0)));
    }
}
