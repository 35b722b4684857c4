#!/usr/bin/env python3
"""Non-test code size per crate: python3 tools/loc.py

Counts the non-blank lines of crates/*/src/**/*.rs that do not start with `//`
(so doc and line comments are excluded). Each file is read only up to its first
`#[cfg(test)]` at column 0, where its unit tests begin. Prints one line per crate,
then the total.
"""
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CRATES = os.path.join(ROOT, "crates")


def count(path):
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#[cfg(test)]"):
                break
            s = line.strip()
            if s and not s.startswith("//"):
                n += 1
    return n


def main():
    total = 0
    for crate in sorted(os.listdir(CRATES)):
        src = os.path.join(CRATES, crate, "src")
        if not os.path.isdir(src):
            continue
        n = sum(count(os.path.join(d, f)) for d, _, fs in os.walk(src) for f in fs if f.endswith(".rs"))
        total += n
        print(f"{crate:<10} {n:>6}")
    print(f"{'total':<10} {total:>6}")


if __name__ == "__main__":
    main()
