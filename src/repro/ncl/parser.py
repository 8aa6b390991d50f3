"""Recursive-descent parser for the NCL C subset.

The grammar covers what the paper's examples (Figs 4 and 5) use, plus the
usual C statement/expression forms:

* file-scope variables with the ``_net_``/``_ctrl_``/``_at_("label")``
  declaration specifiers, arrays (1-D and 2-D) and braced initializers;
* ``ncl::Map<K, V, N>`` and ``ncl::BloomFilter<N, K>`` globals;
* network kernels (``_net_ _out_`` / ``_net_ _in_``) with optional
  ``_at_`` restriction and ``_ext_`` parameters;
* ``struct window { ... };`` window-struct extension;
* ordinary functions (e.g. ``main``) and helper functions;
* statements: blocks, declarations (incl. ``auto *p = Map[k]`` and
  ``if (auto *p = ...)``), if/else, for, while, do-while, return,
  break, continue;
* expressions with full C precedence, including ``?:``, compound
  assignment, pre/post increment, ``&``/``*``, and calls (including
  namespaced ``ncl::...`` runtime calls).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple, Union

from repro.errors import NclSyntaxError, NclTypeError, SourceLocation
from repro.ncl import ast
from repro.ncl.lexer import tokenize
from repro.ncl.tokens import Token, TokenKind
from repro.ncl.types import (
    BUILTIN_TYPE_NAMES,
    ArrayType,
    BloomFilterType,
    MapType,
    PointerType,
    Type,
    VOID,
)
from repro.util import intops

#: Braced-initializer tree: either an expression or a nested list of these.
InitTree = Union[ast.Expr, List["InitTree"]]

_TYPE_KEYWORDS = frozenset(BUILTIN_TYPE_NAMES) | {"signed", "short"}

# Binary operator precedence (C), higher binds tighter.
_BINOP_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")


class Parser:
    def __init__(self, tokens: List[Token]):
        self._toks = tokens
        self._idx = 0

    # -- token cursor ---------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self._idx + offset, len(self._toks) - 1)
        return self._toks[idx]

    def _next(self) -> Token:
        tok = self._peek()
        if tok.kind is not TokenKind.EOF:
            self._idx += 1
        return tok

    def _at_eof(self) -> bool:
        return self._peek().kind is TokenKind.EOF

    def _expect_punct(self, text: str) -> Token:
        tok = self._peek()
        if not tok.is_punct(text):
            raise NclSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.loc)
        return self._next()

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind is not TokenKind.IDENT:
            raise NclSyntaxError(f"expected identifier, found {tok.text!r}", tok.loc)
        return self._next()

    def _accept_punct(self, text: str) -> Optional[Token]:
        if self._peek().is_punct(text):
            return self._next()
        return None

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        if self._peek().is_keyword(*names):
            return self._next()
        return None

    # -- type parsing -----------------------------------------------------

    def _at_type_start(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        if tok.is_keyword(*_TYPE_KEYWORDS) or tok.is_keyword("const", "auto", "static"):
            return True
        # ncl::Map / ncl::BloomFilter
        return (
            tok.kind is TokenKind.IDENT
            and tok.text == "ncl"
            and self._peek(offset + 1).is_punct("::")
            and self._peek(offset + 2).kind is TokenKind.IDENT
            and self._peek(offset + 2).text in ("Map", "BloomFilter")
        )

    def _parse_base_type(self) -> Type:
        """Parse a type specifier (no declarator): keywords or ncl:: templates."""
        tok = self._peek()
        while self._accept_keyword("const", "static"):
            tok = self._peek()
        if tok.kind is TokenKind.IDENT and tok.text == "ncl":
            return self._parse_ncl_template()
        if not tok.is_keyword(*_TYPE_KEYWORDS):
            raise NclSyntaxError(f"expected a type, found {tok.text!r}", tok.loc)
        # Collect multi-keyword C types: "unsigned int", "long long", ...
        words = [self._next().text]
        while self._peek().is_keyword("int", "long", "short", "char", "unsigned", "signed"):
            words.append(self._next().text)
        return _combine_type_words(words, tok.loc)

    def _parse_ncl_template(self) -> Type:
        loc = self._peek().loc
        self._next()  # 'ncl'
        self._expect_punct("::")
        name = self._expect_ident().text
        self._expect_punct("<")
        if name == "Map":
            key = self._parse_base_type()
            self._expect_punct(",")
            value = self._parse_base_type()
            self._expect_punct(",")
            cap = self._parse_const_int("Map capacity", template_arg=True)
            self._expect_template_close(loc)
            return _construct_type(lambda: MapType(key, value, cap), loc)
        if name == "BloomFilter":
            nbits = self._parse_const_int("BloomFilter size", template_arg=True)
            self._expect_punct(",")
            nhashes = self._parse_const_int("BloomFilter hash count", template_arg=True)
            self._expect_template_close(loc)
            return _construct_type(lambda: BloomFilterType(nbits, nhashes), loc)
        raise NclSyntaxError(f"unknown ncl:: type {name!r}", loc)

    def _expect_template_close(self, loc: SourceLocation) -> None:
        tok = self._peek()
        if tok.is_punct(">"):
            self._next()
        elif tok.is_punct(">>"):
            # Split '>>' closing two templates is not needed at depth 1;
            # reaching here means a malformed template.
            raise NclSyntaxError("unexpected '>>' closing template", tok.loc)
        else:
            raise NclSyntaxError("expected '>' to close template", loc)

    def _parse_const_int(self, what: str, template_arg: bool = False) -> int:
        # Inside template argument lists, '<'/'>' close the template rather
        # than act as relational operators, so parsing stops at the
        # additive/shift level (C++ has the same restriction).
        expr = self._parse_binary(8) if template_arg else self.parse_conditional()
        value = const_eval(expr)
        if value is None:
            raise NclSyntaxError(f"{what} must be a constant expression", expr.loc)
        return value

    def _parse_declarator(self, base: Type) -> Tuple[str, Type, SourceLocation]:
        """Parse ``*... name [N][M]...`` and fold into the full type."""
        ty = base
        while self._accept_punct("*"):
            ty = PointerType(ty)
        name_tok = self._expect_ident()
        dims: List[int] = []
        while self._accept_punct("["):
            dims.append(self._parse_const_int("array dimension"))
            self._expect_punct("]")
        for dim in reversed(dims):
            ty = _construct_type(lambda: ArrayType(ty, dim), name_tok.loc)
        return name_tok.text, ty, name_tok.loc

    # -- initializers ------------------------------------------------------

    def _parse_initializer(self) -> InitTree:
        if self._peek().is_punct("{"):
            self._next()
            items: List[InitTree] = []
            if not self._peek().is_punct("}"):
                items.append(self._parse_initializer())
                while self._accept_punct(","):
                    if self._peek().is_punct("}"):
                        break  # trailing comma
                    items.append(self._parse_initializer())
            self._expect_punct("}")
            return items
        return self.parse_assignment()

    # -- top level ---------------------------------------------------------

    def parse_program(self) -> ast.Program:
        loc = self._peek().loc
        decls: List[ast.Node] = []
        while not self._at_eof():
            decls.append(self._parse_top_level())
        return ast.Program(loc, decls)

    def _parse_top_level(self) -> ast.Node:
        tok = self._peek()
        if tok.is_keyword("struct"):
            return self._parse_window_ext()
        # Gather NCL declaration specifiers.
        is_net = is_ctrl = False
        kernel_kind: Optional[ast.KernelKind] = None
        at_label: Optional[str] = None
        start_loc = tok.loc
        while True:
            tok = self._peek()
            if tok.is_keyword("_net_"):
                is_net = True
                self._next()
            elif tok.is_keyword("_ctrl_"):
                is_ctrl = True
                self._next()
            elif tok.is_keyword("_out_"):
                kernel_kind = ast.KernelKind.OUT
                self._next()
            elif tok.is_keyword("_in_"):
                kernel_kind = ast.KernelKind.IN
                self._next()
            elif tok.is_keyword("_at_"):
                at_label = self._parse_at_label()
            else:
                break

        if kernel_kind is not None and not is_net:
            raise NclSyntaxError("_out_/_in_ require the _net_ specifier", start_loc)

        # Return type may be omitted for kernels (Fig 5's `_net_ _out_ query(...)`).
        if kernel_kind is not None and self._is_untyped_function_head():
            ret: Type = VOID
        else:
            ret = self._parse_base_type()

        if isinstance(ret, (MapType, BloomFilterType)):
            # ncl:: container global, e.g. `_net_ _at_("s1") ncl::Map<...> Idx;`
            name_tok = self._expect_ident()
            self._expect_punct(";")
            if not is_net:
                raise NclSyntaxError("ncl:: containers must be _net_", name_tok.loc)
            return ast.GlobalVar(
                start_loc, name_tok.text, ret, None, is_net=True,
                is_ctrl=True, at_label=at_label,
            )

        name, full_ty, name_loc = self._parse_declarator(ret)

        if self._peek().is_punct("("):
            return self._parse_function_rest(
                start_loc, name, full_ty, kernel_kind, at_label, is_net, is_ctrl
            )

        if kernel_kind is not None:
            raise NclSyntaxError("kernel declaration must be a function", name_loc)

        init: Optional[InitTree] = None
        if self._accept_punct("="):
            init = self._parse_initializer()
        self._expect_punct(";")
        return ast.GlobalVar(
            start_loc, name, full_ty, init,
            is_net=is_net, is_ctrl=is_ctrl, at_label=at_label,
        )

    def _is_untyped_function_head(self) -> bool:
        """True for `name(` with no leading type keyword (implicit void)."""
        return (
            self._peek().kind is TokenKind.IDENT
            and self._peek().text != "ncl"
            and self._peek(1).is_punct("(")
        )

    def _parse_at_label(self) -> str:
        self._next()  # _at_
        self._expect_punct("(")
        tok = self._peek()
        if tok.kind is not TokenKind.STRING_LIT:
            raise NclSyntaxError("_at_ expects a string label", tok.loc)
        self._next()
        self._expect_punct(")")
        return str(tok.value)

    def _parse_window_ext(self) -> ast.WindowExt:
        loc = self._next().loc  # 'struct'
        name_tok = self._expect_ident()
        if name_tok.text != "window":
            raise NclSyntaxError(
                "only the builtin 'window' struct may be extended "
                f"(got struct {name_tok.text!r})",
                name_tok.loc,
            )
        self._expect_punct("{")
        fields: List[Tuple[str, Type]] = []
        while not self._peek().is_punct("}"):
            base = self._parse_base_type()
            fname, fty, floc = self._parse_declarator(base)
            if not fty.is_scalar:
                raise NclSyntaxError("window extension fields must be scalar", floc)
            fields.append((fname, fty))
            self._expect_punct(";")
        self._expect_punct("}")
        self._expect_punct(";")
        return ast.WindowExt(loc, fields)

    def _parse_function_rest(
        self,
        loc: SourceLocation,
        name: str,
        ret: Type,
        kernel_kind: Optional[ast.KernelKind],
        at_label: Optional[str],
        is_net: bool,
        is_ctrl: bool,
    ) -> ast.FuncDecl:
        if is_ctrl:
            raise NclSyntaxError("_ctrl_ is not valid on functions", loc)
        if is_net and kernel_kind is None:
            raise NclSyntaxError("_net_ function must be _out_ or _in_", loc)
        self._expect_punct("(")
        params: List[ast.Param] = []
        if not self._peek().is_punct(")"):
            params.append(self._parse_param())
            while self._accept_punct(","):
                params.append(self._parse_param())
        self._expect_punct(")")
        body: Optional[ast.Block] = None
        if self._peek().is_punct("{"):
            body = self._parse_block()
        else:
            self._expect_punct(";")
        return ast.FuncDecl(loc, name, ret, params, body, kernel_kind, at_label)

    def _parse_param(self) -> ast.Param:
        ext = bool(self._accept_keyword("_ext_"))
        base = self._parse_base_type()
        name, ty, loc = self._parse_declarator(base)
        return ast.Param(loc, name, ty, ext)

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        loc = self._expect_punct("{").loc
        stmts: List[ast.Stmt] = []
        while not self._peek().is_punct("}"):
            if self._at_eof():
                raise NclSyntaxError("unterminated block", loc)
            stmts.append(self._parse_statement())
        self._expect_punct("}")
        return ast.Block(loc, stmts)

    def _parse_statement(self) -> ast.Stmt:
        tok = self._peek()
        if tok.is_punct("{"):
            return self._parse_block()
        if tok.is_punct(";"):
            return ast.Block(self._next().loc, [])
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("do"):
            return self._parse_do_while()
        if tok.is_keyword("return"):
            self._next()
            value = None if self._peek().is_punct(";") else self.parse_expression()
            self._expect_punct(";")
            return ast.Return(tok.loc, value)
        if tok.is_keyword("break"):
            self._next()
            self._expect_punct(";")
            return ast.Break(tok.loc)
        if tok.is_keyword("continue"):
            self._next()
            self._expect_punct(";")
            return ast.Continue(tok.loc)
        if self._at_type_start():
            decl = self._parse_decl_stmt()
            self._expect_punct(";")
            return decl
        expr = self.parse_expression()
        self._expect_punct(";")
        return ast.ExprStmt(expr.loc, expr)

    def _parse_decl_stmt(self) -> ast.DeclStmt:
        tok = self._peek()
        if tok.is_keyword("auto"):
            self._next()
            nptr = 0
            while self._accept_punct("*"):
                nptr += 1
            name_tok = self._expect_ident()
            self._expect_punct("=")
            init = self.parse_assignment()
            decl = ast.DeclStmt(tok.loc, name_tok.text, None, init, is_auto=True)
            decl.auto_ptr_depth = nptr  # type: ignore[attr-defined]
            return decl
        base = self._parse_base_type()
        name, ty, loc = self._parse_declarator(base)
        init: Optional[ast.Expr] = None
        if self._accept_punct("="):
            raw = self._parse_initializer()
            if isinstance(raw, list):
                decl = ast.DeclStmt(loc, name, ty, None)
                decl.braced_init = raw  # type: ignore[attr-defined]
                return decl
            init = raw
        return ast.DeclStmt(loc, name, ty, init)

    def _parse_if(self) -> ast.If:
        loc = self._next().loc
        self._expect_punct("(")
        cond_decl: Optional[ast.DeclStmt] = None
        cond: Optional[ast.Expr] = None
        if self._peek().is_keyword("auto"):
            cond_decl = self._parse_decl_stmt()
        else:
            cond = self.parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        orelse: Optional[ast.Stmt] = None
        if self._accept_keyword("else"):
            orelse = self._parse_statement()
        return ast.If(loc, cond, then, orelse, cond_decl)

    def _parse_for(self) -> ast.For:
        loc = self._next().loc
        self._expect_punct("(")
        init: Optional[ast.Stmt] = None
        if not self._peek().is_punct(";"):
            if self._at_type_start():
                init = self._parse_decl_stmt()
            else:
                expr = self.parse_expression()
                init = ast.ExprStmt(expr.loc, expr)
        self._expect_punct(";")
        cond = None if self._peek().is_punct(";") else self.parse_expression()
        self._expect_punct(";")
        step = None if self._peek().is_punct(")") else self.parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.For(loc, init, cond, step, body)

    def _parse_while(self) -> ast.While:
        loc = self._next().loc
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.While(loc, cond, body)

    def _parse_do_while(self) -> ast.Stmt:
        # Desugar do-while into: body; while (cond) body;
        loc = self._next().loc
        body = self._parse_statement()
        if not self._accept_keyword("while"):
            raise NclSyntaxError("expected 'while' after do-body", self._peek().loc)
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.Block(loc, [body, ast.While(loc, cond, body)])

    # -- expressions -----------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        expr = self.parse_assignment()
        while self._peek().is_punct(","):
            # Comma operator: evaluate both, yield the right operand.
            loc = self._next().loc
            rhs = self.parse_assignment()
            expr = ast.Binary(loc, ",", expr, rhs)
        return expr

    def parse_assignment(self) -> ast.Expr:
        lhs = self.parse_conditional()
        tok = self._peek()
        if tok.is_punct(*_ASSIGN_OPS):
            self._next()
            rhs = self.parse_assignment()
            return ast.Assign(tok.loc, tok.text, lhs, rhs)
        return lhs

    def parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self._peek().is_punct("?"):
            loc = self._next().loc
            then = self.parse_assignment()
            self._expect_punct(":")
            other = self.parse_conditional()
            return ast.Ternary(loc, cond, then, other)
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        lhs = self._parse_unary()
        while True:
            tok = self._peek()
            prec = _BINOP_PREC.get(tok.text) if tok.kind is TokenKind.PUNCT else None
            if prec is None or prec < min_prec:
                return lhs
            self._next()
            rhs = self._parse_binary(prec + 1)
            lhs = ast.Binary(tok.loc, tok.text, lhs, rhs)

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.is_punct("++", "--", "-", "+", "!", "~", "*", "&"):
            self._next()
            operand = self._parse_unary()
            if tok.text == "+":
                return operand
            return ast.Unary(tok.loc, tok.text, operand)
        if tok.is_punct("(") and self._at_type_start(1):
            # Cast expression: (type) unary -- only scalar casts supported.
            self._next()
            target = self._parse_base_type()
            while self._accept_punct("*"):
                target = PointerType(target)
            self._expect_punct(")")
            operand = self._parse_unary()
            return ast.Cast(tok.loc, target, operand)
        if tok.is_keyword("sizeof"):
            self._next()
            self._expect_punct("(")
            base = self._parse_base_type()
            while self._accept_punct("*"):
                base = PointerType(base)
            self._expect_punct(")")
            from repro.ncl.types import sizeof as _sizeof

            return ast.IntLit(tok.loc, _sizeof(base))
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_punct("["):
                self._next()
                index = self.parse_expression()
                self._expect_punct("]")
                expr = ast.Index(tok.loc, expr, index)
            elif tok.is_punct("."):
                self._next()
                field = self._expect_ident().text
                expr = ast.Member(tok.loc, expr, field)
            elif tok.is_punct("->"):
                self._next()
                field = self._expect_ident().text
                expr = ast.Member(tok.loc, ast.Unary(tok.loc, "*", expr), field)
            elif tok.is_punct("++", "--"):
                self._next()
                expr = ast.Unary(tok.loc, tok.text, expr, postfix=True)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT_LIT or tok.kind is TokenKind.CHAR_LIT:
            self._next()
            return ast.IntLit(tok.loc, int(tok.value))  # type: ignore[arg-type]
        if tok.kind is TokenKind.STRING_LIT:
            self._next()
            return ast.StrLit(tok.loc, str(tok.value))
        if tok.is_keyword("true", "false"):
            self._next()
            return ast.BoolLit(tok.loc, tok.text == "true")
        if tok.is_punct("("):
            self._next()
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        if tok.kind is TokenKind.IDENT:
            return self._parse_ident_or_call()
        raise NclSyntaxError(f"unexpected token {tok.text!r} in expression", tok.loc)

    def _parse_ident_or_call(self) -> ast.Expr:
        tok = self._next()
        name = tok.text
        while self._peek().is_punct("::"):
            self._next()
            name += "::" + self._expect_ident().text
        if self._peek().is_punct("("):
            self._next()
            args: List[ast.Expr] = []
            if not self._peek().is_punct(")"):
                args.append(self._parse_call_arg())
                while self._accept_punct(","):
                    args.append(self._parse_call_arg())
            self._expect_punct(")")
            return ast.Call(tok.loc, name, args)
        return ast.Ident(tok.loc, name)

    def _parse_call_arg(self) -> ast.Expr:
        # Runtime calls like ncl::out(kernel, {a, b}, wnd, mask) accept a
        # braced list of arrays; represent it as a Call named "__list__".
        if self._peek().is_punct("{"):
            loc = self._next().loc
            items: List[ast.Expr] = []
            if not self._peek().is_punct("}"):
                items.append(self.parse_assignment())
                while self._accept_punct(","):
                    items.append(self.parse_assignment())
            self._expect_punct("}")
            call = ast.Call(loc, "__list__", items)
            call.is_intrinsic = True
            return call
        return self.parse_assignment()


def _construct_type(build, loc: SourceLocation) -> Type:
    """Run a type constructor, attaching *loc* to any validation error.

    The :mod:`repro.ncl.types` constructors validate their arguments
    (positive array lengths, scalar Map keys, ...) but have no notion of
    source positions; re-raising here keeps those errors span-carrying.
    """
    try:
        return build()
    except NclTypeError as exc:
        if exc.loc is not None:
            raise
        raise type(exc)(exc.message, loc, code=exc.code, length=exc.length) from None


def _combine_type_words(words: List[str], loc: SourceLocation) -> Type:
    """Fold multi-keyword C type specifiers into a concrete type."""
    from repro.ncl.types import IntType

    unique = tuple(sorted(words))
    if len(words) == 1 and words[0] in BUILTIN_TYPE_NAMES:
        return BUILTIN_TYPE_NAMES[words[0]]
    # Bare "short"/"signed" fall through to the multi-word folding below.
    signed = "unsigned" not in words
    core = [w for w in words if w not in ("unsigned", "signed")]
    if not core or core == ["int"]:
        return IntType(32, signed)
    if core in (["long"], ["long", "long"], ["long", "int"], ["int", "long"]):
        return IntType(64, signed)
    if core in (["short"], ["short", "int"], ["int", "short"]):
        return IntType(16, signed)
    if core == ["char"]:
        return IntType(8, signed)
    raise NclSyntaxError(f"unsupported type specifier {' '.join(unique)!r}", loc)


def const_eval(expr: ast.Expr) -> Optional[int]:
    """Evaluate an expression tree of literals at parse time (array dims,
    template arguments, file-scope initializers) in 64-bit signed C
    arithmetic. Returns None if not constant."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return int(expr.value)
    if isinstance(expr, ast.Unary) and not expr.postfix:
        value = const_eval(expr.operand)
        if value is None:
            return None
        if expr.op == "!":
            return int(not value)
        if expr.op in intops.C_UNOPS:
            return intops.UNOPS[intops.C_UNOPS[expr.op]](value, 64, True)
        return None
    if isinstance(expr, ast.Binary):
        lhs = const_eval(expr.lhs)
        rhs = const_eval(expr.rhs)
        if lhs is None or rhs is None:
            return None
        if expr.op == "&&":
            return int(bool(lhs) and bool(rhs))
        if expr.op == "||":
            return int(bool(lhs) or bool(rhs))
        try:
            return intops.BINOPS[intops.c_binop(expr.op, True)](lhs, rhs, 64, True)
        except (KeyError, ZeroDivisionError):
            return None
    if isinstance(expr, ast.Ternary):
        cond = const_eval(expr.cond)
        if cond is None:
            return None
        return const_eval(expr.then if cond else expr.other)
    return None


def parse(
    source: str,
    filename: str = "<ncl>",
    defines: Optional[Mapping[str, int]] = None,
) -> ast.Program:
    """Parse NCL source text into an AST."""
    return Parser(tokenize(source, filename, defines)).parse_program()
