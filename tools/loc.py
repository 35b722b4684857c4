#!/usr/bin/env python3
"""Non-test code size per crate: python3 tools/loc.py

Counts the non-blank lines of crates/*/src/**/*.rs that do not start with `//`
(so doc and line comments are excluded). Each file is read only up to its first
`#[cfg(test)]` at column 0, where its unit tests begin. Prints one line per crate,
then the total, then `config fields N`: the `pub` fields of every
`pub struct *Config` in that same non-test code, and `pub items N`: the
lines of that code declaring a `pub` fn, struct, enum, trait, const, static,
type, mod or use item (`pub(crate)` and other restricted visibilities
excluded), plus every `fn` declared inside a `pub trait` block (a trait
method is public surface too, so moving one to an inherent `pub fn` counts
as zero) — the public surface, so a change reports its delta in one command.
"""
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CRATES = os.path.join(ROOT, "crates")


CONFIG_OPEN = re.compile(r"^(\s*)pub struct \w*Config\b.*\{\s*$")
PUB_FIELD = re.compile(r"^\s*pub \w+\s*:")
PUB_TRAIT_OPEN = re.compile(r"^(\s*)pub trait \w+.*\{\s*$")
TRAIT_FN = re.compile(r"^\s*(?:(?:const|async|unsafe)\s+)*fn\b")
PUB_ITEM = re.compile(
    r'^\s*pub\s+(?:(?:const|async|unsafe|extern(?:\s+"[^"]*")?)\s+)*'
    r"(?:fn|struct|enum|trait|const|static|type|mod|use)\b"
)


def count(path):
    """(code lines, config fields, pub items) of one file's non-test part."""
    n = fields = items = 0
    close = None  # the line ending the open `pub struct *Config`, if any
    trait_close = None  # the line ending the open `pub trait`, if any
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#[cfg(test)]"):
                break
            s = line.strip()
            if s and not s.startswith("//"):
                n += 1
            if PUB_ITEM.match(line):
                items += 1
            if trait_close is None:
                m = PUB_TRAIT_OPEN.match(line)
                if m:
                    trait_close = m.group(1) + "}"
            elif line.rstrip() == trait_close:
                trait_close = None
            elif TRAIT_FN.match(line):
                items += 1
            if close is None:
                m = CONFIG_OPEN.match(line)
                if m:
                    close = m.group(1) + "}"
            elif line.rstrip() == close:
                close = None
            elif PUB_FIELD.match(line):
                fields += 1
    return n, fields, items


def main():
    total = fields = items = 0
    for crate in sorted(os.listdir(CRATES)):
        src = os.path.join(CRATES, crate, "src")
        if not os.path.isdir(src):
            continue
        counts = [count(os.path.join(d, f)) for d, _, fs in os.walk(src) for f in fs if f.endswith(".rs")]
        n = sum(c[0] for c in counts)
        total += n
        fields += sum(c[1] for c in counts)
        items += sum(c[2] for c in counts)
        print(f"{crate:<10} {n:>6}")
    print(f"{'total':<10} {total:>6}")
    print(f"config fields {fields}")
    print(f"pub items {items}")


if __name__ == "__main__":
    main()
