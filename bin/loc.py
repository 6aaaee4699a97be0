#!/usr/bin/env python3
"""Count code lines and exported values of the engine: lib/core/*.ml and
lib/serve/*.ml.

    python3 bin/loc.py

Prints one row per file with its line count after stripping comments
(OCaml comments nest) and blank lines, the number of `val` declarations
in its interface (the .mli next to it; "-" for a module without one) and
the optional parameters (`?x:`) those declarations take, then the
totals. A report for tracking code size and API surface alongside the
benchmark numbers, not a gate.
"""

import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def strip_comments(src):
    """Return src with every (possibly nested) comment removed.

    String literals are copied verbatim, so a "(*" inside one does not
    open a comment; the character literal '"' does not open a string.
    """
    out = []
    depth = 0
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth > 0 and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif depth > 0:
            if c == "\n":
                out.append(c)
            i += 1
        elif src.startswith("'\"'", i):
            out.append("'\"'")
            i += 3
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append(src[i:j + 1])
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def code_lines(path):
    with open(path, encoding="utf-8") as f:
        text = strip_comments(f.read())
    return sum(1 for line in text.splitlines() if line.strip())


OPTIONAL = re.compile(r"\?[a-z_][A-Za-z0-9_']*:")
# A line that starts a new interface item ends the `val` before it.
ITEM = re.compile(r"\s*(val|type|module|exception|external|include|open|end)\b")


def interface(path):
    """(`val` declarations, optional parameters in their signatures) of the
    interface next to path, or None."""
    mli = path + "i"
    if not os.path.exists(mli):
        return None
    with open(mli, encoding="utf-8") as f:
        text = strip_comments(f.read())
    vals = optional = 0
    in_val = False
    for line in text.splitlines():
        if ITEM.match(line):
            in_val = line.lstrip().startswith("val ")
            vals += in_val
        if in_val:
            optional += len(OPTIONAL.findall(line))
    return vals, optional


def main():
    files = sorted(glob.glob(os.path.join(ROOT, "lib", "core", "*.ml"))
                   + glob.glob(os.path.join(ROOT, "lib", "serve", "*.ml")))
    total = total_vals = total_optional = 0
    print("%6s %5s %5s  %s" % ("lines", "vals", "?opt", "file"))
    for path in files:
        n = code_lines(path)
        iface = interface(path)
        total += n
        if iface is None:
            v = o = "-"
        else:
            v, o = iface
            total_vals += v
            total_optional += o
        print("%6d %5s %5s  %s" % (n, v, o, os.path.relpath(path, ROOT)))
    print("%6d %5d %5d  total" % (total, total_vals, total_optional))
    return 0


if __name__ == "__main__":
    sys.exit(main())
