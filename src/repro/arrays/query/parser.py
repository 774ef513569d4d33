"""Recursive-descent parser for the RasQL subset.

Grammar (lowercase = nonterminal)::

    statement : query | CREATE COLLECTION IDENT | DROP COLLECTION IDENT
              | DELETE FROM from_item [WHERE expr]
    query     : SELECT expr FROM from_item (',' from_item)* [WHERE expr]
    from_item : IDENT [AS IDENT]
    expr      : or_expr
    or_expr   : and_expr (OR and_expr)*
    and_expr  : cmp_expr (AND cmp_expr)*
    cmp_expr  : add_expr [('<'|'<='|'>'|'>='|'='|'!=') add_expr]
    add_expr  : mul_expr (('+'|'-') mul_expr)*
    mul_expr  : unary (('*'|'/') unary)*
    unary     : ('-'|NOT) unary | postfix
    postfix   : primary ('[' dims ']' | '.' IDENT)*
    primary   : NUMBER | STRING | IDENT '(' [expr (',' expr)*] ')'
              | IDENT | '(' expr ')'
    dims      : dim (',' dim)*
    dim       : bound [':' bound]        -- single bound = section
    bound     : expr | '*'

Query text is untrusted, so nesting is bounded by :data:`MAX_DEPTH`, past
which the parser raises :class:`~repro.errors.QuerySyntaxError`.  Two
depths count: how deep the parser recurses (every bracket, subscript, unary
operator and call argument), and the height of the finished tree, where each
operator of a chain (``c+c+...``) adds a level.  Every walk over the tree,
the executor's included, therefore stays far inside the interpreter's
recursion limit.
"""

from __future__ import annotations

from dataclasses import fields
from typing import List, Optional

from ...errors import QuerySyntaxError
from .ast import (
    BinaryOp,
    CreateCollection,
    DeleteFrom,
    DimSpec,
    DropCollection,
    FieldAccess,
    FromItem,
    FuncCall,
    Node,
    NumberLit,
    Query,
    Statement,
    StringLit,
    Subset,
    UnaryOp,
    Var,
)
from .lexer import Token, TokenKind, tokenize

_COMPARISONS = {"<", "<=", ">", ">=", "=", "!="}
#: deepest nesting a statement may have, in parser recursion and in tree
#: height; each level costs the parser about nine interpreter frames
MAX_DEPTH = 50


class Parser:
    """One-shot parser over a token list."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.position = 0
        self.depth = 0

    # -- token helpers -------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        self.position += 1
        return token

    def expect(self, kind: TokenKind, text: Optional[str] = None) -> Token:
        token = self.current
        if token.kind is not kind or (text is not None and token.text != text):
            want = text or kind.value
            raise QuerySyntaxError(
                f"expected {want!r} at position {token.position}, got {token.text!r}"
            )
        return self.advance()

    def accept(self, kind: TokenKind, text: Optional[str] = None) -> Optional[Token]:
        token = self.current
        if token.kind is kind and (text is None or token.text == text):
            return self.advance()
        return None

    # -- grammar ----------------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self.current
        if token.is_keyword("select"):
            return self.parse_query()
        if token.is_keyword("create"):
            self.advance()
            self.expect(TokenKind.KEYWORD, "collection")
            name = self.expect(TokenKind.IDENT).text
            self.expect(TokenKind.EOF)
            return CreateCollection(name=name)
        if token.is_keyword("drop"):
            self.advance()
            self.expect(TokenKind.KEYWORD, "collection")
            name = self.expect(TokenKind.IDENT).text
            self.expect(TokenKind.EOF)
            return DropCollection(name=name)
        if token.is_keyword("delete"):
            self.advance()
            self.expect(TokenKind.KEYWORD, "from")
            item = self.parse_from_item()
            where = None
            if self.accept(TokenKind.KEYWORD, "where"):
                where = self.parse_expr()
            self.expect(TokenKind.EOF)
            return DeleteFrom(collection=item.collection, alias=item.alias, where=where)
        raise QuerySyntaxError(
            f"expected a statement keyword at position {token.position}, "
            f"got {token.text!r}"
        )

    def parse_query(self) -> Query:
        self.expect(TokenKind.KEYWORD, "select")
        select = self.parse_expr()
        self.expect(TokenKind.KEYWORD, "from")
        from_items = [self.parse_from_item()]
        while self.accept(TokenKind.COMMA):
            from_items.append(self.parse_from_item())
        where = None
        if self.accept(TokenKind.KEYWORD, "where"):
            where = self.parse_expr()
        self.expect(TokenKind.EOF)
        return Query(select=select, from_items=tuple(from_items), where=where)

    def parse_from_item(self) -> FromItem:
        collection = self.expect(TokenKind.IDENT).text
        alias = collection
        if self.accept(TokenKind.KEYWORD, "as"):
            alias = self.expect(TokenKind.IDENT).text
        return FromItem(collection=collection, alias=alias)

    def parse_expr(self) -> Node:
        return self.parse_or()

    def parse_or(self) -> Node:
        node = self.parse_and()
        while self.accept(TokenKind.KEYWORD, "or"):
            node = BinaryOp("or", node, self.parse_and())
        return node

    def parse_and(self) -> Node:
        node = self.parse_cmp()
        while self.accept(TokenKind.KEYWORD, "and"):
            node = BinaryOp("and", node, self.parse_cmp())
        return node

    def parse_cmp(self) -> Node:
        node = self.parse_add()
        token = self.current
        if token.kind is TokenKind.OP and token.text in _COMPARISONS:
            self.advance()
            node = BinaryOp(token.text, node, self.parse_add())
        return node

    def parse_add(self) -> Node:
        node = self.parse_mul()
        while True:
            token = self.current
            if token.kind is TokenKind.OP and token.text in ("+", "-"):
                self.advance()
                node = BinaryOp(token.text, node, self.parse_mul())
            else:
                return node

    def parse_mul(self) -> Node:
        node = self.parse_unary()
        while True:
            token = self.current
            if token.kind is TokenKind.STAR:
                self.advance()
                node = BinaryOp("*", node, self.parse_unary())
            elif token.kind is TokenKind.OP and token.text == "/":
                self.advance()
                node = BinaryOp("/", node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Node:
        # every recursive production passes through here
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(f" at position {self.current.position}")
        if self.accept(TokenKind.OP, "-"):
            node: Node = UnaryOp("-", self.parse_unary())
        elif self.accept(TokenKind.KEYWORD, "not"):
            node = UnaryOp("not", self.parse_unary())
        else:
            node = self.parse_postfix()
        self.depth -= 1
        return node

    def parse_postfix(self) -> Node:
        node = self.parse_primary()
        while True:
            if self.accept(TokenKind.LBRACKET):
                specs = [self.parse_dim()]
                while self.accept(TokenKind.COMMA):
                    specs.append(self.parse_dim())
                self.expect(TokenKind.RBRACKET)
                node = Subset(operand=node, specs=tuple(specs))
            elif self.accept(TokenKind.OP, "."):
                field = self.expect(TokenKind.IDENT).text
                node = FieldAccess(operand=node, field=field)
            else:
                return node

    def parse_dim(self) -> DimSpec:
        lo = self.parse_bound()
        if self.accept(TokenKind.COLON):
            hi = self.parse_bound()
            return DimSpec(lo=lo, hi=hi, is_section=False)
        if lo is None:
            # A bare '*' keeps the whole axis.
            return DimSpec(lo=None, hi=None, is_section=False)
        return DimSpec(lo=lo, hi=lo, is_section=True)

    def parse_bound(self) -> Optional[Node]:
        if self.accept(TokenKind.STAR):
            return None
        return self.parse_add()

    def parse_primary(self) -> Node:
        token = self.current
        if token.kind is TokenKind.NUMBER:
            self.advance()
            if "." in token.text:
                return NumberLit(float(token.text))
            return NumberLit(int(token.text))
        if token.kind is TokenKind.STRING:
            self.advance()
            return StringLit(token.text)
        if token.kind is TokenKind.LPAREN:
            self.advance()
            node = self.parse_expr()
            self.expect(TokenKind.RPAREN)
            return node
        if token.kind is TokenKind.IDENT:
            self.advance()
            if self.accept(TokenKind.LPAREN):
                args: List[Node] = []
                if self.current.kind is not TokenKind.RPAREN:
                    args.append(self.parse_expr())
                    while self.accept(TokenKind.COMMA):
                        args.append(self.parse_expr())
                self.expect(TokenKind.RPAREN)
                return FuncCall(name=token.text.lower(), args=tuple(args))
            return Var(name=token.text)
        raise QuerySyntaxError(
            f"unexpected token {token.text!r} at position {token.position}"
        )


def _too_deep(where: str) -> QuerySyntaxError:
    return QuerySyntaxError(f"expression nested deeper than {MAX_DEPTH} levels{where}")


def _bounded(root: Node) -> Node:
    """*root*, once its tree is checked to be at most MAX_DEPTH levels
    below it (walked with a stack, not by recursion)."""
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise _too_deep("")
        for item in fields(node):
            value = getattr(node, item.name)
            for child in value if isinstance(value, tuple) else (value,):
                if isinstance(child, Node):
                    stack.append((child, depth + 1))
    return root


def parse(text: str) -> Statement:
    """Parse a top-level statement (SELECT / CREATE / DROP / DELETE)."""
    return _bounded(Parser(text).parse_statement())


def parse_expression(text: str) -> Node:
    """Parse a standalone expression (used by tests and the framing API)."""
    parser = Parser(text)
    node = parser.parse_expr()
    parser.expect(TokenKind.EOF)
    return _bounded(node)
