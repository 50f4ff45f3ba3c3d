"""Statement-level CFG construction for a small C subset.

Accepted grammar (no preprocessor, no pointers, no casts):

    program  := function | stmt*
    function := type name '(' [type name {',' type name}] ')' block
    block    := '{' stmt* '}'
    stmt     := [type] name '=' expr ';'   assignment (optionally declared)
              | name '(' args ')' ';'      call statement
              | 'return' [expr] ';'
              | 'if' '(' expr ')' stmt ['else' stmt]
              | 'while' '(' expr ')' stmt
              | block
    expr     := numbers, identifiers, calls, parentheses, unary - !,
                binary + - * / < > <= >= == != && ||

Anything outside this subset raises; callers that analyze arbitrary code are
expected to catch the error and fall back (never a silent skip).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

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
    uses: tuple[str, ...] = ()
    calls: tuple[str, ...] = ()
    text: str = ""


@dataclass
class ControlFlowGraph:
    nodes: list[CfgNode] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)
    entry: int = 0
    exit: int = 0

    def node(self, node_id: int) -> CfgNode:
        return self.nodes[self._index[node_id]]

    def __post_init__(self):
        self._reindex()

    def _reindex(self) -> None:
        self._index = {n.id: i for i, n in enumerate(self.nodes)}

    def successors(self, node_id: int) -> list[int]:
        return [d for s, d in self.edges if s == node_id]

    def validate(self) -> None:
        ids = [n.id for n in self.nodes]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate node ids")
        idset = set(ids)
        if self.entry not in idset or self.exit not in idset:
            raise ValueError("entry/exit not in node set")
        for n in self.nodes:
            if n.kind not in NODE_KINDS:
                raise ValueError(f"unknown node kind {n.kind!r}")
        for s, d in self.edges:
            if s not in idset or d not in idset:
                raise ValueError(f"edge ({s}, {d}) references missing node")
        entries = [n for n in self.nodes if n.kind == "entry"]
        exits = [n for n in self.nodes if n.kind == "exit"]
        if len(entries) != 1 or len(exits) != 1:
            raise ValueError("CFG must have exactly one entry and one exit")
        reached = self.reachable_from(self.entry)
        if reached != idset:
            raise ValueError(f"unreachable nodes: {sorted(idset - reached)}")

    def reachable_from(self, start: int) -> set[int]:
        seen = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for nxt in self.successors(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def _err(self, message: str) -> MiniCError:
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            return MiniCError(message, t.line, t.col)
        lines = self.source.splitlines() or [""]
        return MiniCError(message, len(lines), len(lines[-1]) + 1)

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

    # --- statements -------------------------------------------------------

    def parse_program(self) -> list[dict]:
        if self._looks_like_function():
            self.take()  # return type
            self.take()  # function name
            self.take("(")
            while not self.at(")"):
                t = self.take()
                if t.kind not in ("name",):
                    raise self._err(f"bad parameter token {t.text!r}")
                if self.at(","):
                    self.take(",")
            self.take(")")
            stmts = self.parse_block()
        else:
            stmts = []
            while self.peek() is not None:
                stmts.append(self.parse_stmt())
        if self.peek() is not None:
            raise self._err(f"trailing tokens after program: {self.peek().text!r}")
        return stmts

    def _looks_like_function(self) -> bool:
        a, b, c = self.peek(0), self.peek(1), self.peek(2)
        return (
            a is not None and a.kind == "name" and a.text in TYPE_KEYWORDS
            and b is not None and b.kind == "name"
            and c is not None and c.text == "("
        )

    def parse_block(self) -> list[dict]:
        self.take("{")
        stmts = []
        while not self.at("}"):
            if self.peek() is None:
                raise self._err("unclosed block")
            stmts.append(self.parse_stmt())
        self.take("}")
        return stmts

    def parse_stmt(self) -> dict:
        t = self.peek()
        if t is None:
            raise self._err("expected statement")
        if t.text == "{":
            return {"kind": "block", "body": self.parse_block(), "line": t.line}
        if t.text == "if":
            return self.parse_if()
        if t.text == "while":
            return self.parse_while()
        if t.text == "return":
            self.take("return")
            uses, calls = [], []
            if not self.at(";"):
                self.parse_expr(uses, calls)
            self.take(";")
            return {"kind": "return", "uses": uses, "calls": calls, "line": t.line}
        if t.kind == "name":
            # optional declaration type keyword
            if t.text in TYPE_KEYWORDS:
                self.take()
                t = self.peek()
                if t is None or t.kind != "name":
                    raise self._err("expected variable name after type")
            return self.parse_assign_or_call()
        raise self._err(f"cannot start a statement with {t.text!r}")

    def parse_assign_or_call(self) -> dict:
        name = self.take()
        if name.kind != "name":
            raise self._err(f"expected identifier, found {name.text!r}")
        uses: list[str] = []
        calls: list[str] = []
        if self.at("="):
            self.take("=")
            self.parse_expr(uses, calls)
            self.take(";")
            return {
                "kind": "call" if calls else "assign",
                "defines": name.text,
                "uses": uses,
                "calls": calls,
                "line": name.line,
            }
        if self.at("("):
            calls.append(name.text)
            self.take("(")
            while not self.at(")"):
                self.parse_expr(uses, calls)
                if self.at(","):
                    self.take(",")
            self.take(")")
            self.take(";")
            return {"kind": "call", "defines": None, "uses": uses, "calls": calls, "line": name.line}
        raise self._err(f"expected '=' or '(' after {name.text!r}")

    def parse_if(self) -> dict:
        t = self.take("if")
        self.take("(")
        uses, calls = [], []
        self.parse_expr(uses, calls)
        self.take(")")
        then = self.parse_stmt()
        other = None
        if self.at("else"):
            self.take("else")
            other = self.parse_stmt()
        return {"kind": "if", "uses": uses, "calls": calls, "then": then, "else": other, "line": t.line}

    def parse_while(self) -> dict:
        t = self.take("while")
        self.take("(")
        uses, calls = [], []
        self.parse_expr(uses, calls)
        self.take(")")
        body = self.parse_stmt()
        return {"kind": "while", "uses": uses, "calls": calls, "body": body, "line": t.line}

    # --- expressions (precedence-flattened; we only need refs) ------------

    _BINOPS = {"+", "-", "*", "/", "<", ">", "<=", ">=", "==", "!=", "&&", "||"}

    def parse_expr(self, uses: list[str], calls: list[str]) -> None:
        self.parse_unary(uses, calls)
        while self.peek() is not None and self.peek().text in self._BINOPS:
            self.take()
            self.parse_unary(uses, calls)

    def parse_unary(self, uses: list[str], calls: list[str]) -> None:
        while self.peek() is not None and self.peek().text in ("-", "!"):
            self.take()
        self.parse_primary(uses, calls)

    def parse_primary(self, uses: list[str], calls: list[str]) -> None:
        t = self.peek()
        if t is None:
            raise self._err("expected expression")
        if t.text == "(":
            self.take("(")
            self.parse_expr(uses, calls)
            self.take(")")
            return
        if t.kind == "num":
            self.take()
            return
        if t.kind == "name":
            self.take()
            if self.at("("):
                calls.append(t.text)
                self.take("(")
                while not self.at(")"):
                    self.parse_expr(uses, calls)
                    if self.at(","):
                        self.take(",")
                self.take(")")
            else:
                uses.append(t.text)
            return
        raise self._err(f"unexpected token {t.text!r} in expression")


def _lower(stmts: list[dict], make_node, edges: list[tuple[int, int]], returns: list[int]):
    """Lower a statement list; returns (first_id or None, open exit ids)."""
    first = None
    open_ends: list[int] = []
    for st in stmts:
        head, tails = _lower_one(st, make_node, edges, returns)
        if head is None:
            continue
        if first is None:
            first = head
        for e in open_ends:
            edges.append((e, head))
        open_ends = tails
    return first, open_ends


def _lower_one(st: dict, make_node, edges: list[tuple[int, int]], returns: list[int]):
    kind = st["kind"]
    if kind == "block":
        return _lower(st["body"], make_node, edges, returns)
    if kind in ("assign", "call"):
        nid = make_node(kind, st)
        return nid, [nid]
    if kind == "return":
        nid = make_node("return", st)
        returns.append(nid)
        return nid, []
    if kind == "if":
        nid = make_node("branch", st)
        tails = []
        then_head, then_tails = _lower_one(st["then"], make_node, edges, returns)
        if then_head is None:
            tails.append(nid)
        else:
            edges.append((nid, then_head))
            tails.extend(then_tails)
        if st["else"] is None:
            tails.append(nid)
        else:
            else_head, else_tails = _lower_one(st["else"], make_node, edges, returns)
            if else_head is None:
                tails.append(nid)
            else:
                edges.append((nid, else_head))
                tails.extend(else_tails)
        return nid, tails
    if kind == "while":
        nid = make_node("loop_head", st)
        body_head, body_tails = _lower_one(st["body"], make_node, edges, returns)
        if body_head is not None:
            edges.append((nid, body_head))
            for t in body_tails:
                edges.append((t, nid))
        else:
            edges.append((nid, nid))
        return nid, [nid]
    raise AssertionError(f"unhandled statement kind {kind}")


def parse_mini_c(source: str) -> ControlFlowGraph:
    """Parse mini-C ``source`` into a validated statement-level CFG.

    Statements are numbered by source order; entry is node 0 and exit the
    highest id. Statements made unreachable by ``return`` are pruned so the
    reachability invariant holds.
    """
    tokens = _tokenize(source)
    parser = _Parser(tokens, source)
    stmts = parser.parse_program()

    nodes: list[CfgNode] = [CfgNode(id=0, kind="entry")]
    edges: list[tuple[int, int]] = []
    returns: list[int] = []

    def make_node(kind: str, st: dict) -> int:
        nid = len(nodes)
        nodes.append(
            CfgNode(
                id=nid,
                kind=kind,
                line=st.get("line", 0),
                defines=st.get("defines"),
                uses=tuple(dict.fromkeys(st.get("uses", ()))),
                calls=tuple(dict.fromkeys(st.get("calls", ()))),
            )
        )
        return nid

    first, open_ends = _lower(stmts, make_node, edges, returns)
    exit_id = len(nodes)
    nodes.append(CfgNode(id=exit_id, kind="exit"))
    if first is None:
        edges.append((0, exit_id))
    else:
        edges.append((0, first))
    for e in open_ends:
        edges.append((e, exit_id))
    for r in returns:
        edges.append((r, exit_id))

    cfg = ControlFlowGraph(nodes=nodes, edges=sorted(set(edges)), entry=0, exit=exit_id)
    reached = cfg.reachable_from(cfg.entry)
    if reached != {n.id for n in cfg.nodes}:
        keep = sorted(reached)
        remap = {old: new for new, old in enumerate(keep)}
        cfg = ControlFlowGraph(
            nodes=[
                CfgNode(remap[n.id], n.kind, n.line, n.defines, n.uses, n.calls, n.text)
                for n in cfg.nodes
                if n.id in reached
            ],
            edges=sorted({(remap[s], remap[d]) for s, d in cfg.edges if s in reached and d in reached}),
            entry=remap[cfg.entry],
            exit=remap[cfg.exit],
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
