"""icclib — source-scanning machinery for tools/iccheck.

iccheck promises dependency-free (stdlib only), line-accurate findings from
scanning that understands C++ lexing well enough not to fire inside
comments, string literals, or preprocessor directives.  This module keeps
the lexer, the manifest TOML subset and the compile-database format out of
the analyzer's passes:

  strip_comments     comment/string-aware text blanking (line-preserving)
  lex                a flat token stream (identifiers, numbers, punctuation)
                     with line numbers, preprocessor lines dropped
  parse_toml_subset  a small TOML reader for the checked-in manifests
                     (tables, string/bool values, string arrays, quoted keys)
                     that works on any Python 3 the repo supports
  IncludeGraph       quoted-#include edge extraction and resolution over a
                     file set, optionally seeded from compile_commands.json

Nothing here prints or exits; callers own policy and reporting.
"""

import json
import os
import re


# ---------------------------------------------------------------------------
# Comment/string stripping (every pass agrees on what "code" means)
# ---------------------------------------------------------------------------

def strip_comments(text):
    """Return (code, nostrings): `code` with comments blanked, `nostrings`
    additionally with string/char literal contents blanked.  Both preserve
    line structure so line numbers survive."""
    code = []
    nostr = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW_STRING = range(6)
    state = NORMAL
    raw_terminator = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                code.append("  ")
                nostr.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                code.append("  ")
                nostr.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"' and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
                close = text.find("(", i + 2)
                if close != -1:
                    delim = text[i + 2 : close]
                    raw_terminator = ")" + delim + '"'
                    state = RAW_STRING
                    chunk = text[i : close + 1]
                    code.append(chunk)
                    nostr.append('R"' + delim + "(")
                    i = close + 1
                    continue
            if c == '"':
                state = STRING
                code.append(c)
                nostr.append(c)
                i += 1
                continue
            if c == "'":
                state = CHAR
                code.append(c)
                nostr.append(c)
                i += 1
                continue
            code.append(c)
            nostr.append(c)
            i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                code.append(c)
                nostr.append(c)
            else:
                code.append(" ")
                nostr.append(" ")
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                code.append("  ")
                nostr.append("  ")
                i += 2
                continue
            code.append(c if c == "\n" else " ")
            nostr.append(c if c == "\n" else " ")
            i += 1
        elif state == STRING:
            if c == "\\" and nxt:
                code.append(c + nxt)
                nostr.append("  ")
                i += 2
                continue
            if c == '"':
                state = NORMAL
                code.append(c)
                nostr.append(c)
            else:
                code.append(c)
                nostr.append(c if c == "\n" else " ")
            i += 1
        elif state == CHAR:
            if c == "\\" and nxt:
                code.append(c + nxt)
                nostr.append("  ")
                i += 2
                continue
            if c == "'":
                state = NORMAL
                code.append(c)
                nostr.append(c)
            else:
                code.append(c)
                nostr.append(c if c == "\n" else " ")
            i += 1
        elif state == RAW_STRING:
            if text.startswith(raw_terminator, i):
                code.append(raw_terminator)
                nostr.append(raw_terminator)
                i += len(raw_terminator)
                state = NORMAL
                continue
            code.append(c)
            nostr.append(c if c == "\n" else " ")
            i += 1
    return "".join(code), "".join(nostr)


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

class Tok:
    """One lexical token: `text` plus the 1-based source `line`."""

    __slots__ = ("text", "line")

    def __init__(self, text, line):
        self.text = text
        self.line = line

    def __repr__(self):
        return f"Tok({self.text!r}@{self.line})"


_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"       # identifier / keyword
    r"|\d[\w.]*"                     # number (loose; never inspected deeply)
    r"|::|->|\"|'"                   # multi-char punctuation we care about
    r"|[{}()\[\];,<>*&=:#~!+\-/%.|^?]"
)


def lex(nostr_text):
    """Tokenize comment- and string-blanked C++ text into a flat Tok list.

    Preprocessor lines (leading `#`, including backslash continuations) are
    dropped entirely: directives are not statements, and `#if` branches must
    not unbalance the scope tracking the callers build on top of this.
    String literals survive as a single '"' token (their contents are
    already blanked), which is enough to keep declarator scanning honest.
    """
    tokens = []
    in_directive = False
    for lineno, line in enumerate(nostr_text.splitlines(), start=1):
        stripped = line.lstrip()
        if in_directive:
            in_directive = line.rstrip().endswith("\\")
            continue
        if stripped.startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            continue
        for m in _TOKEN_RE.finditer(line):
            tokens.append(Tok(m.group(0), lineno))
    return tokens


# ---------------------------------------------------------------------------
# Minimal TOML subset
# ---------------------------------------------------------------------------

class TomlError(ValueError):
    pass


_TOML_KEY_RE = re.compile(r'^(?:"([^"]*)"|([A-Za-z0-9_.\-/]+))\s*=\s*(.*)$')


def _toml_value(raw, path, lineno):
    raw = raw.strip()
    if raw.startswith('"'):
        m = re.match(r'^"([^"]*)"\s*(?:#.*)?$', raw)
        if not m:
            raise TomlError(f"{path}:{lineno}: malformed string value")
        return m.group(1)
    if raw in ("true", "false"):
        return raw == "true"
    raise TomlError(f"{path}:{lineno}: unsupported value {raw!r} "
                    "(this manifest subset allows strings, booleans, and string arrays)")


def parse_toml_subset(text, path="<manifest>"):
    """Parse the manifest TOML subset.

    Returns (data, lines): `data` maps "table.key" -> value and `lines` maps
    the same keys to their 1-based line numbers, so callers can point error
    messages at the manifest itself.  Supported: `[table]` headers (dotted
    names allowed), `key = "string"`, `key = true/false`, and
    `key = ["a", "b", ...]` arrays of strings (multi-line allowed).  Keys may
    be quoted to carry slashes and colons.  Anything fancier is an error —
    the manifests are meant to stay this simple.
    """
    data = {}
    lines = {}
    table = ""
    pending_key = None
    pending_items = None
    pending_line = 0

    def full(key):
        return f"{table}.{key}" if table else key

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if pending_key is not None:
            frag = stripped
            closed = False
            # Strip a trailing comment that sits outside the array.
            if "]" in frag:
                frag, _, _tail = frag.partition("]")
                closed = True
            elif "#" in frag:
                frag = frag.split("#", 1)[0]
            for piece in frag.split(","):
                piece = piece.strip()
                if not piece:
                    continue
                m = re.match(r'^"([^"]*)"$', piece)
                if not m:
                    raise TomlError(f"{path}:{lineno}: array items must be quoted strings")
                pending_items.append(m.group(1))
            if closed:
                data[pending_key] = pending_items
                lines[pending_key] = pending_line
                pending_key = pending_items = None
            continue
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            m = re.match(r"^\[([A-Za-z0-9_.\-]+)\]\s*(?:#.*)?$", stripped)
            if not m:
                raise TomlError(f"{path}:{lineno}: malformed table header")
            table = m.group(1)
            continue
        m = _TOML_KEY_RE.match(stripped)
        if not m:
            raise TomlError(f"{path}:{lineno}: expected `key = value`")
        key = m.group(1) if m.group(1) is not None else m.group(2)
        raw = m.group(3).strip()
        fkey = full(key)
        if fkey in data:
            raise TomlError(f"{path}:{lineno}: duplicate key {fkey!r}")
        if raw.startswith("["):
            pending_key = fkey
            pending_items = []
            pending_line = lineno
            rest = raw[1:]
            closed = False
            if "]" in rest:
                rest, _, _tail = rest.partition("]")
                closed = True
            elif "#" in rest:
                rest = rest.split("#", 1)[0]
            for piece in rest.split(","):
                piece = piece.strip()
                if not piece:
                    continue
                mm = re.match(r'^"([^"]*)"$', piece)
                if not mm:
                    raise TomlError(f"{path}:{lineno}: array items must be quoted strings")
                pending_items.append(mm.group(1))
            if closed:
                data[pending_key] = pending_items
                lines[pending_key] = pending_line
                pending_key = pending_items = None
            continue
        data[fkey] = _toml_value(raw, path, lineno)
        lines[fkey] = lineno
    if pending_key is not None:
        raise TomlError(f"{path}: unterminated array for key {pending_key!r}")
    return data, lines


def toml_table(data, prefix):
    """Return the {key: value} slice of `data` under `prefix.` with the
    prefix removed."""
    plen = len(prefix) + 1
    return {k[plen:]: v for k, v in data.items() if k.startswith(prefix + ".")}


# ---------------------------------------------------------------------------
# compile_commands.json
# ---------------------------------------------------------------------------

def load_compile_commands(path):
    """Return (tu_files, include_dirs) from a compile_commands.json.

    `tu_files` are absolute paths of the translation units, `include_dirs`
    the union of -I / -isystem directories across all commands, in first-seen
    order.  Malformed files raise OSError/ValueError for the caller to turn
    into a diagnostic.
    """
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)
    tu_files = []
    include_dirs = []
    seen_dirs = set()

    def add_dir(d, cwd):
        if not os.path.isabs(d):
            d = os.path.join(cwd, d)
        d = os.path.normpath(d)
        if d not in seen_dirs:
            seen_dirs.add(d)
            include_dirs.append(d)

    for entry in entries:
        cwd = entry.get("directory", ".")
        fname = entry.get("file", "")
        if fname:
            if not os.path.isabs(fname):
                fname = os.path.join(cwd, fname)
            tu_files.append(os.path.normpath(fname))
        if "arguments" in entry:
            args = entry["arguments"]
        else:
            # Naive shell split is fine: CMake writes no quoted -I paths in
            # this repo, and a miss only costs a search directory.
            args = entry.get("command", "").split()
        i = 0
        while i < len(args):
            a = args[i]
            if a in ("-I", "-isystem") and i + 1 < len(args):
                add_dir(args[i + 1], cwd)
                i += 2
                continue
            if a.startswith("-I") and len(a) > 2:
                add_dir(a[2:], cwd)
            i += 1
    return tu_files, include_dirs


# ---------------------------------------------------------------------------
# Include graph
# ---------------------------------------------------------------------------

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


class IncludeGraph:
    """Quoted-#include edges over a fixed file set.

    Files are keyed by the path the caller supplied (typically repo-relative).
    Only includes that resolve to files *inside the set* become edges; system
    and out-of-set includes are recorded in `unresolved` per file and never
    invent nodes.
    """

    def __init__(self):
        self.edges = {}        # path -> [(target_path, line)]
        self.unresolved = {}   # path -> [(include_text, line)]

    def add_file(self, relpath, code_text, search_dirs, known):
        """Scan `code_text` (comment-stripped) of `relpath`, resolving each
        quoted include against `search_dirs` (ordered) and then against the
        including file's own directory.  `known` maps resolved real paths ->
        canonical relpath keys."""
        out = []
        missed = []
        own_dir = os.path.dirname(relpath)
        for m in _INCLUDE_RE.finditer(code_text):
            inc = m.group(1)
            line = code_text.count("\n", 0, m.start()) + 1
            target = None
            for d in list(search_dirs) + ([own_dir] if own_dir else []):
                cand = os.path.normpath(os.path.join(d, inc))
                if cand in known:
                    target = known[cand]
                    break
            if target is None:
                missed.append((inc, line))
            else:
                out.append((target, line))
        self.edges[relpath] = out
        if missed:
            self.unresolved[relpath] = missed

    def reachable(self, start):
        """All files transitively included by `start` (excluding itself
        unless it self-includes via a cycle)."""
        seen = set()
        stack = [t for t, _ in self.edges.get(start, ())]
        while stack:
            f = stack.pop()
            if f in seen:
                continue
            seen.add(f)
            stack.extend(t for t, _ in self.edges.get(f, ()))
        return seen

    def strongly_connected_components(self):
        """Tarjan SCCs over the edge set; returns only components with more
        than one node or a self-loop — i.e. real include cycles."""
        index = {}
        low = {}
        onstack = set()
        stack = []
        counter = [0]
        cycles = []

        # Iterative Tarjan: recursion depth would track include depth, which
        # is fine today but a stack overflow in a linter is never acceptable.
        for root in sorted(self.edges):
            if root in index:
                continue
            work = [(root, 0)]
            while work:
                node, ei = work[-1]
                if ei == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    onstack.add(node)
                targets = [t for t, _ in self.edges.get(node, ())]
                advanced = False
                while ei < len(targets):
                    t = targets[ei]
                    ei += 1
                    if t not in index:
                        work[-1] = (node, ei)
                        work.append((t, 0))
                        advanced = True
                        break
                    if t in onstack:
                        low[node] = min(low[node], index[t])
                if advanced:
                    continue
                work[-1] = (node, ei)
                if ei >= len(targets):
                    if low[node] == index[node]:
                        comp = []
                        while True:
                            w = stack.pop()
                            onstack.discard(w)
                            comp.append(w)
                            if w == node:
                                break
                        selfloop = len(comp) == 1 and any(
                            t == node for t, _ in self.edges.get(node, ())
                        )
                        if len(comp) > 1 or selfloop:
                            cycles.append(sorted(comp))
                    work.pop()
                    if work:
                        parent, _ = work[-1]
                        low[parent] = min(low[parent], low[node])
        return cycles


def collect_cxx_files(roots, extensions=(".hpp", ".cpp", ".h", ".cc")):
    """Sorted walk of the C++ sources under `roots` (files or directories)."""
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if os.path.splitext(name)[1] in extensions:
                    files.append(os.path.join(dirpath, name))
    return sorted(files)
