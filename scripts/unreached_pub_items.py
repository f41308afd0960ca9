#!/usr/bin/env python3
"""List every public item under crates/*/src that no program code uses.

The items are `pub fn`, `pub const`, `pub static`, `pub struct`,
`pub enum`, `pub type` and `pub trait` names and `pub` struct fields. One
counts as reached when its name occurs, as a whole word, in the non-test
code of `crates/*/src` (binaries included) or of `benchmark/src`,
anywhere but on its own definition line. Test code does not count:
items under `#[cfg(test)]`, `crates/*/tests`, `tests/` and `examples/`
are never scanned for uses, and items inside `#[cfg(test)]` items are
not listed. Comments and string literals are blanked before scanning.

The match is by name, not by type, so a common name (`new`, `len`) is
always reached; the lint under-reports and never flags a used item.

Each unreached item must be named in the allowlist
(`scripts/unreached_pub_items.allow`) as `<file>::<name>`, followed by
the test or request that keeps it. The script exits 1 when an unreached
item is missing from the allowlist or an allowlist line names an item
that is reached or gone, so the list stays exact.

    python3 scripts/unreached_pub_items.py          # check (CI)
    python3 scripts/unreached_pub_items.py --list   # print every unreached item
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOW = ROOT / "scripts" / "unreached_pub_items.allow"

# Matched after `blank`, so an `extern "C"` ABI string is already spaces.
# Each pattern's last group is the item's name, its first the item kind.
PUB_ITEMS = [
    re.compile(r"\bpub\s+(?:const\s+)?(?:unsafe\s+)?(?:extern\s+)?(fn)\s+([A-Za-z_][A-Za-z0-9_]*)"),
    re.compile(r"\bpub\s+(const|static|struct|enum|type|trait)\s+(?:mut\s+)?(?!fn\b|unsafe\b|extern\b)([A-Za-z_][A-Za-z0-9_]*)"),
    # A named field: `pub name: Type` (not `pub(crate)`, not an item).
    re.compile(r"\bpub\s+()([A-Za-z_][A-Za-z0-9_]*)\s*:(?!:)"),
]
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def blank(src):
    """Replace comments and string/char literals by spaces, keeping newlines."""
    out = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif src.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif c == "r" and re.match(r'r#*"', src[i:]) and not (i and (src[i - 1].isalnum() or src[i - 1] == "_")):
            hashes = re.match(r"r(#*)\"", src[i:]).group(1)
            end = src.find('"' + hashes, i + 2 + len(hashes))
            j = n if end < 0 else end + 1 + len(hashes)
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            j += 1
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif c == "'":
            # A char literal ('x', '\n', '\u{..}'), else a lifetime.
            m = re.match(r"'(\\u\{[0-9a-fA-F]+\}|\\.|[^\\'])'", src[i:])
            if m:
                out.append(" " * len(m.group(0)))
                i += len(m.group(0))
            else:
                out.append(c)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_cfg_test(code):
    """Blank every item that follows a `#[cfg(test)]` attribute."""
    out = list(code)
    for m in re.finditer(r"#\[cfg\(test\)\]", code):
        i = m.start()
        # The item ends at its matching close brace, or at `;` for a
        # braceless item (`mod tests;`, `use ...;`).
        j, depth = m.end(), 0
        while j < len(code):
            if code[j] == "{":
                depth += 1
            elif code[j] == "}":
                depth -= 1
                if depth == 0:
                    j += 1
                    break
            elif code[j] == ";" and depth == 0:
                j += 1
                break
            j += 1
        for k in range(i, j):
            if out[k] != "\n":
                out[k] = " "
    return "".join(out)


def program_code(path):
    return strip_cfg_test(blank(path.read_text()))


def main():
    sources = sorted(ROOT.glob("crates/*/src/**/*.rs"))
    callers = sources + sorted(ROOT.glob("benchmark/src/**/*.rs"))

    defs = []  # (key, file, line, kind)
    used = set()
    for path in callers:
        rel = path.relative_to(ROOT).as_posix()
        for lineno, line in enumerate(program_code(path).split("\n"), 1):
            for pattern in PUB_ITEMS:
                for m in pattern.finditer(line):
                    if path in sources:
                        defs.append((f"{rel}::{m.group(2)}", rel, lineno, m.group(1) or "field"))
                # The defined name is not a use of itself.
                line = pattern.sub(" ", line)
            used.update(WORD.findall(line))

    unreached = [d for d in defs if d[0].rsplit("::", 1)[1] not in used]

    if "--list" in sys.argv[1:]:
        for key, rel, lineno, kind in unreached:
            print(f"{rel}:{lineno}: {kind} {key}")
        return 0

    allowed = {}
    for lineno, line in enumerate(ALLOW.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = line.partition(" ")
        if not reason.strip():
            print(f"{ALLOW.name}:{lineno}: {key} names no test or request that keeps it")
            return 1
        allowed[key] = lineno

    failed = False
    found = {key for key, _, _, _ in unreached}
    for key, rel, lineno, kind in unreached:
        if key not in allowed:
            print(f"{rel}:{lineno}: pub {kind} `{key.rsplit('::', 1)[1]}` has no use outside tests")
            failed = True
    for key, lineno in allowed.items():
        if key not in found:
            print(f"{ALLOW.name}:{lineno}: {key} is reached or gone; drop the line")
            failed = True
    if failed:
        print("delete the item, move it under #[cfg(test)], or name the test that keeps it in "
              f"scripts/{ALLOW.name}")
        return 1
    print(f"unreached pub items: {len(unreached)}, all on the allowlist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
