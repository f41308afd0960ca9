#!/usr/bin/env python3
"""List every `pub fn` under crates/*/src that no program code calls.

A `pub fn` counts as reached when its name occurs, as a whole word, in
the non-test code of `crates/*/src` (binaries included) or of
`benchmark/src`, anywhere but on its own definition line. Test code does
not count: items under `#[cfg(test)]`, `crates/*/tests`, `tests/` and
`examples/` are never scanned for callers, and `pub fn`s inside
`#[cfg(test)]` items are not listed. Comments and string literals are
blanked before scanning.

The match is by name, not by type, so a common name (`new`, `len`) is
always reached; the lint under-reports and never flags a called
function.

Each unreached function must be named in the allowlist
(`scripts/unreached_pub_fns.allow`) as `<file>::<name>`, followed by the
test or request that keeps it. The script exits 1 when an unreached
function is missing from the allowlist or an allowlist line names a
function that is reached or gone, so the list stays exact.

    python3 scripts/unreached_pub_fns.py          # check (CI)
    python3 scripts/unreached_pub_fns.py --list   # print every unreached fn
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOW = ROOT / "scripts" / "unreached_pub_fns.allow"

# Matched after `blank`, so an `extern "C"` ABI string is already spaces.
PUB_FN = re.compile(r"\bpub\s+(?:const\s+)?(?:unsafe\s+)?(?:extern\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")
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

    defs = []  # (key, file, line)
    used = set()
    for path in callers:
        rel = path.relative_to(ROOT).as_posix()
        for lineno, line in enumerate(program_code(path).split("\n"), 1):
            m = PUB_FN.search(line)
            if m:
                if path in sources:
                    defs.append((f"{rel}::{m.group(1)}", rel, lineno))
                # The defined name is not a use of itself.
                line = line[: m.start()] + line[m.end() :]
            used.update(WORD.findall(line))

    unreached = [(key, rel, lineno) for key, rel, lineno in defs if key.rsplit("::", 1)[1] not in used]

    if "--list" in sys.argv[1:]:
        for key, rel, lineno in unreached:
            print(f"{rel}:{lineno}: {key}")
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
    found = {key for key, _, _ in unreached}
    for key, rel, lineno in unreached:
        if key not in allowed:
            print(f"{rel}:{lineno}: `pub fn {key.rsplit('::', 1)[1]}` has no caller outside tests")
            failed = True
    for key, lineno in allowed.items():
        if key not in found:
            print(f"{ALLOW.name}:{lineno}: {key} is reached or gone; drop the line")
            failed = True
    if failed:
        print("delete the function, move it under #[cfg(test)], or name the test that keeps it in "
              f"scripts/{ALLOW.name}")
        return 1
    print(f"unreached pub fns: {len(unreached)}, all on the allowlist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
