"""Statement-level CFG construction for a small C subset.

Accepted grammar (no preprocessor, no pointers, no casts):

    program  := function | stmt*
    function := type name '(' [type name {',' type name}] ')' block
    block    := '{' stmt* '}'
    stmt     := [type] name '=' expr ';'   assignment (optionally declared)
              | name '(' [args] ')' ';'    call statement
              | 'return' [expr] ';'
              | 'if' '(' expr ')' stmt ['else' stmt]
              | 'while' '(' expr ')' stmt
              | block
    args     := expr {',' expr}
    expr     := numbers, identifiers, calls name '(' [args] ')', parentheses,
                unary - !, binary + - * / < > <= >= == != && ||

The parser emits the CFG in the same pass that recognizes the statements: each
statement becomes one node (a block none), numbered in source order, so a
node's id is its position in ``ControlFlowGraph.nodes``. A node records the
variable it defines and the names it calls, which is all the dataflow
analysis and its features read.

Anything outside this subset raises, and so does nesting of statements and
expressions deeper than ``MAX_NESTING``; callers that analyze arbitrary code
are expected to catch the error and fall back (never a silent skip).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

__all__ = [
    "MiniCError",
    "CfgNode",
    "ControlFlowGraph",
    "parse_mini_c",
    "to_dot",
]

TYPE_KEYWORDS = {"int", "long", "float", "double", "char", "void", "unsigned", "bool", "short"}
UNSUPPORTED_KEYWORDS = {
    "for", "do", "switch", "case", "goto", "struct", "union", "enum",
    "typedef", "static", "const", "sizeof", "break", "continue",
}
NODE_KINDS = ("entry", "exit", "assign", "call", "branch", "loop_head", "return")
# Statements and expressions nested in one another, counted together: each
# level takes at most four interpreter frames of the recursive descent, so the
# bound keeps a hostile input far from the interpreter's recursion limit.
MAX_NESTING = 100


class MiniCError(ValueError):
    """Parse failure with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # name | num | op | kw
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<num>\d+(\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|==|!=|&&|\|\||\+\+|--|->|<<|>>|[-+*/<>=!;,(){}\[\]&|^%~?:.])
    """,
    re.VERBOSE | re.DOTALL,
)

_UNSUPPORTED_OPS = {"++", "--", "->", "<<", ">>", "[", "]", "&", "|", "^", "%", "~", "?", ":", "."}


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            col = pos - line_start + 1
            raise MiniCError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        col = pos - line_start + 1
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            pass
        elif kind == "name":
            if text in UNSUPPORTED_KEYWORDS:
                raise MiniCError(f"unsupported construct {text!r}", line, col)
            tokens.append(Token("kw" if text in ("if", "else", "while", "return") else "name", text, line, col))
        elif kind == "num":
            tokens.append(Token("num", text, line, col))
        else:
            if text in _UNSUPPORTED_OPS:
                raise MiniCError(f"unsupported construct {text!r}", line, col)
            tokens.append(Token("op", text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rfind("\n") + 1
        pos = m.end()
    return tokens


@dataclass
class CfgNode:
    id: int
    kind: str  # one of NODE_KINDS
    line: int = 0
    defines: str | None = None
    calls: tuple[str, ...] = ()


@dataclass
class ControlFlowGraph:
    """Statement-level CFG whose node ids are positions: ``nodes[i].id == i``."""

    nodes: list[CfgNode] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)
    entry: int = 0
    exit: int = 0

    def validate(self) -> None:
        n = len(self.nodes)
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise ValueError(f"node at position {i} has id {node.id}")
            if node.kind not in NODE_KINDS:
                raise ValueError(f"unknown node kind {node.kind!r}")
        if not (0 <= self.entry < n and 0 <= self.exit < n):
            raise ValueError("entry/exit not in node set")
        for s, d in self.edges:
            if not (0 <= s < n and 0 <= d < n):
                raise ValueError(f"edge ({s}, {d}) references missing node")
        entries = [node for node in self.nodes if node.kind == "entry"]
        exits = [node for node in self.nodes if node.kind == "exit"]
        if len(entries) != 1 or len(exits) != 1:
            raise ValueError("CFG must have exactly one entry and one exit")
        reached = _reachable(self.edges, self.entry)
        if len(reached) != n:
            raise ValueError(f"unreachable nodes: {sorted(set(range(n)) - reached)}")


def _reachable(edges: list[tuple[int, int]], start: int) -> set[int]:
    succs: dict[int, list[int]] = {}
    for s, d in edges:
        succs.setdefault(s, []).append(d)
    seen = {start}
    frontier = [start]
    while frontier:
        for nxt in succs.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


# A statement's piece of the CFG: its first node (None for an empty block) and
# the nodes whose successor is whatever follows the statement.
Fragment = tuple[int | None, list[int]]


class _Parser:
    """Recursive descent that emits each statement's CFG node as it is
    recognized, so node ids follow source order; entry is node 0."""

    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.nodes = [CfgNode(id=0, kind="entry")]
        self.edges: list[tuple[int, int]] = []
        self.returns: list[int] = []
        self.depth = 0

    def _err(self, message: str) -> MiniCError:
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            return MiniCError(message, t.line, t.col)
        lines = self.source.splitlines() or [""]
        return MiniCError(message, len(lines), len(lines[-1]) + 1)

    def _descend(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._err(f"nested deeper than {MAX_NESTING} levels")

    def peek(self, offset: int = 0) -> Token | None:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def at(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.text == text

    def take(self, text: str | None = None) -> Token:
        t = self.peek()
        if t is None:
            raise self._err(f"unexpected end of input (wanted {text!r})" if text else "unexpected end of input")
        if text is not None and t.text != text:
            raise self._err(f"expected {text!r}, found {t.text!r}")
        self.pos += 1
        return t

    # --- graph ------------------------------------------------------------

    def _node(self, kind: str, line: int, calls: list[str], defines: str | None = None) -> int:
        nid = len(self.nodes)
        self.nodes.append(CfgNode(id=nid, kind=kind, line=line, defines=defines, calls=tuple(dict.fromkeys(calls))))
        return nid

    def _link(self, ends: list[int], head: int) -> None:
        self.edges.extend((e, head) for e in ends)

    def _join(self, ends: list[int], fragment: Fragment) -> list[int]:
        """Continue ``ends`` into ``fragment``; the open ends after it."""
        head, tails = fragment
        if head is None:
            return ends
        self._link(ends, head)
        return tails

    # --- statements -------------------------------------------------------

    def parse_program(self) -> ControlFlowGraph:
        if self._looks_like_function():
            self.take()  # return type
            self.take()  # function name
            self.take("(")
            if not self.at(")"):
                self._param()
                while self.at(","):
                    self.take(",")
                    self._param()
            self.take(")")
            ends = self._join([0], self.parse_block())
        else:
            ends = [0]
            while self.peek() is not None:
                ends = self._join(ends, self.parse_stmt())
        if self.peek() is not None:
            raise self._err(f"trailing tokens after program: {self.peek().text!r}")
        exit_id = len(self.nodes)
        self.nodes.append(CfgNode(id=exit_id, kind="exit"))
        self._link(ends + self.returns, exit_id)
        return ControlFlowGraph(nodes=self.nodes, edges=sorted(set(self.edges)), entry=0, exit=exit_id)

    def _looks_like_function(self) -> bool:
        a, b, c = self.peek(0), self.peek(1), self.peek(2)
        return (
            a is not None and a.kind == "name" and a.text in TYPE_KEYWORDS
            and b is not None and b.kind == "name"
            and c is not None and c.text == "("
        )

    def _param(self) -> None:
        for want in ("type", "name"):
            t = self.peek()
            if t is None or t.kind != "name" or (want == "type") != (t.text in TYPE_KEYWORDS):
                raise self._err(f"expected parameter {want}, found {repr(t.text) if t else 'end of input'}")
            self.take()

    def parse_block(self) -> Fragment:
        self.take("{")
        first, ends = None, []
        while not self.at("}"):
            if self.peek() is None:
                raise self._err("unclosed block")
            fragment = self.parse_stmt()
            if first is None:
                first = fragment[0]
            ends = self._join(ends, fragment)
        self.take("}")
        return first, ends

    def parse_stmt(self) -> Fragment:
        self._descend()
        fragment = self._stmt()
        self.depth -= 1
        return fragment

    def _stmt(self) -> Fragment:
        t = self.peek()
        if t is None:
            raise self._err("expected statement")
        if t.text == "{":
            return self.parse_block()
        if t.text == "if":
            return self.parse_if()
        if t.text == "while":
            return self.parse_while()
        if t.text == "return":
            self.take("return")
            calls: list[str] = []
            if not self.at(";"):
                self.parse_expr(calls)
            self.take(";")
            nid = self._node("return", t.line, calls)
            self.returns.append(nid)
            return nid, []
        if t.kind == "name":
            # optional declaration type keyword
            if t.text in TYPE_KEYWORDS:
                self.take()
                t = self.peek()
                if t is None or t.kind != "name":
                    raise self._err("expected variable name after type")
            return self.parse_assign_or_call()
        raise self._err(f"cannot start a statement with {t.text!r}")

    def parse_assign_or_call(self) -> Fragment:
        name = self.take()
        if name.kind != "name":
            raise self._err(f"expected identifier, found {name.text!r}")
        calls: list[str] = []
        if self.at("="):
            self.take("=")
            self.parse_expr(calls)
            self.take(";")
            nid = self._node("call" if calls else "assign", name.line, calls, defines=name.text)
            return nid, [nid]
        if self.at("("):
            calls.append(name.text)
            self.parse_args(calls)
            self.take(";")
            nid = self._node("call", name.line, calls)
            return nid, [nid]
        raise self._err(f"expected '=' or '(' after {name.text!r}")

    def parse_if(self) -> Fragment:
        t = self.take("if")
        nid = self._node("branch", t.line, self.parse_condition())
        ends = self._join([nid], self.parse_stmt())
        if self.at("else"):
            self.take("else")
            return nid, ends + self._join([nid], self.parse_stmt())
        return nid, ends + [nid]

    def parse_while(self) -> Fragment:
        t = self.take("while")
        nid = self._node("loop_head", t.line, self.parse_condition())
        self._link(self._join([nid], self.parse_stmt()), nid)
        return nid, [nid]

    def parse_condition(self) -> list[str]:
        self.take("(")
        calls: list[str] = []
        self.parse_expr(calls)
        self.take(")")
        return calls

    # --- expressions (precedence-flattened; only the called names matter) -

    _BINOPS = {"+", "-", "*", "/", "<", ">", "<=", ">=", "==", "!=", "&&", "||"}

    def parse_expr(self, calls: list[str]) -> None:
        self._descend()
        self.parse_unary(calls)
        while self.peek() is not None and self.peek().text in self._BINOPS:
            self.take()
            self.parse_unary(calls)
        self.depth -= 1

    def parse_unary(self, calls: list[str]) -> None:
        while self.peek() is not None and self.peek().text in ("-", "!"):
            self.take()
        self.parse_primary(calls)

    def parse_primary(self, calls: list[str]) -> None:
        t = self.peek()
        if t is None:
            raise self._err("expected expression")
        if t.text == "(":
            self.take("(")
            self.parse_expr(calls)
            self.take(")")
            return
        if t.kind == "num":
            self.take()
            return
        if t.kind == "name":
            self.take()
            if self.at("("):
                calls.append(t.text)
                self.parse_args(calls)
            return
        raise self._err(f"unexpected token {t.text!r} in expression")

    def parse_args(self, calls: list[str]) -> None:
        self.take("(")
        if not self.at(")"):
            self.parse_expr(calls)
            while self.at(","):
                self.take(",")
                self.parse_expr(calls)
        self.take(")")


def parse_mini_c(source: str) -> ControlFlowGraph:
    """Parse mini-C ``source`` into a validated statement-level CFG.

    Statements are numbered by source order; entry is node 0 and exit the
    highest id. Statements made unreachable by ``return`` are pruned so the
    reachability invariant holds.
    """
    cfg = _Parser(_tokenize(source), source).parse_program()
    reached = _reachable(cfg.edges, cfg.entry)
    if len(reached) != len(cfg.nodes):
        keep = sorted(reached)
        new_id = {old: new for new, old in enumerate(keep)}
        cfg = ControlFlowGraph(
            nodes=[replace(cfg.nodes[old], id=new) for new, old in enumerate(keep)],
            edges=[(new_id[s], new_id[d]) for s, d in cfg.edges if s in reached],
            entry=new_id[cfg.entry],
            exit=new_id[cfg.exit],
        )
    cfg.validate()
    return cfg


def to_dot(cfg: ControlFlowGraph) -> str:
    """Render the CFG in DOT format for debugging dumps."""
    lines = ["digraph cfg {"]
    for n in cfg.nodes:
        label = n.kind
        if n.defines:
            label += f"\\n{n.defines} :="
        if n.calls:
            label += "\\ncalls " + ",".join(n.calls)
        lines.append(f'  n{n.id} [label="{n.id}: {label}"];')
    for s, d in cfg.edges:
        lines.append(f"  n{s} -> n{d};")
    lines.append("}")
    return "\n".join(lines) + "\n"
