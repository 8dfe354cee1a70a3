#!/usr/bin/env python3
"""Resolve scripts/prof/sampler.c output into the three tables of
scripts/profile.sh: physical function, innermost inlined frame
(`function @ file:line`), and the hottest instructions with objdump
context and per-address hit counts.

usage: report.py <samples-file>... [--top N]

Several sample files of one executable accumulate into one report.
A share is of all samples, resolved or not; at ~250 samples/s a single
4 s run resolves shares to about +-1.5 points.
"""
import bisect
import collections
import os
import subprocess
import sys


def read_samples(paths):
    """-> (exe, {vaddr: hits}, total, outside). One load base per file (PIE)."""
    exe, hits, total, outside = None, collections.Counter(), 0, 0
    for path in paths:
        ranges, base, addrs = [], None, []
        for line in open(path):
            if line.startswith("map "):
                f = line.split()
                lo, hi = (int(x, 16) for x in f[1].split("-"))
                ranges.append((lo, hi))
                if int(f[3], 16) == 0:
                    base = lo
                exe = exe or f[6]
                assert exe == f[6], f"sample files of two executables: {exe} / {f[6]}"
            else:
                addrs.append(int(line, 16))
        assert base is not None, f"{path}: no mapping of the executable at offset 0"
        for a in addrs:
            total += 1
            if any(lo <= a < hi for lo, hi in ranges):
                hits[a - base] += 1
            else:
                outside += 1
    return exe, hits, total, outside


def symbolize(exe, vaddrs):
    """addr2line -f -i -C -a -> {vaddr: [(function, file:line), ...]}, innermost first."""
    feed = "".join(f"{a:#x}\n" for a in vaddrs)
    out = subprocess.run(
        ["addr2line", "-f", "-i", "-C", "-a", "-e", exe],
        input=feed, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    frames, i = {}, 0
    for a in vaddrs:
        assert int(out[i], 16) == a, f"addr2line output out of step at {out[i]}"
        i += 1
        chain = []
        while i < len(out) and not is_marker(out[i]):
            chain.append((out[i], short_loc(out[i + 1])))
            i += 2
        frames[a] = chain or [("??", "??:0")]
    return frames


def is_marker(s):
    """An `-a` address line: 0x + 16 hex digits (function names never look so)."""
    return len(s) == 18 and s.startswith("0x") and all(c in "0123456789abcdef" for c in s[2:])


def short_loc(loc):
    """Trim a source path to its last three components; drop discriminators."""
    loc = loc.split(" (discriminator")[0]
    path, _, line = loc.rpartition(":")
    return "/".join(path.split("/")[-3:]) + ":" + line


def table(title, counter, total, top):
    print(f"== {title} ==")
    print(f"{'samples':>8} {'share':>7}  where")
    for key, n in counter.most_common(top):
        print(f"{n:>8} {100.0 * n / total:>6.1f}%  {key}")
    print()


def hot_instructions(exe, hits, frames, total, top):
    syms = []
    nm = subprocess.run(["nm", "-n", "--defined-only", exe], capture_output=True, text=True)
    for line in nm.stdout.splitlines():
        f = line.split()
        if len(f) >= 3 and f[1] in "tTwW":
            syms.append(int(f[0], 16))
    print("== hottest instructions (objdump context; hits per address) ==")
    for a, n in hits.most_common(top):
        fn, loc = frames[a][0]
        print(f"-- {a:#x}: {n} samples, {100.0 * n / total:.1f}%  {fn} @ {loc}")
        k = bisect.bisect_right(syms, a) - 1
        start = syms[k] if k >= 0 else a
        dis = subprocess.run(
            ["objdump", "-d", "--no-show-raw-insn", f"--start-address={start:#x}",
             f"--stop-address={a + 32:#x}", exe],
            capture_output=True, text=True,
        ).stdout.splitlines()
        insns = []
        for line in dis:
            head, _, text = line.partition(":\t")
            try:
                insns.append((int(head, 16), text.strip()))
            except ValueError:
                continue
        at = next((i for i, (addr, _) in enumerate(insns) if addr == a), None)
        if at is None:
            print("   (address not on an instruction boundary of its symbol)")
            continue
        for addr, text in insns[max(0, at - 8):at + 4]:
            mark = "=>" if addr == a else "  "
            print(f"   {hits.get(addr, 0):>5} {mark} {addr:x}: {text}")
    print()


def main():
    args = sys.argv[1:]
    top = 25
    if "--top" in args:
        i = args.index("--top")
        top = int(args[i + 1])
        del args[i:i + 2]
    if not args:
        sys.exit(__doc__)
    exe, hits, total, outside = read_samples(args)
    assert total > 0, "no samples: did the run last longer than one timer tick?"
    inside = total - outside
    print(f"executable: {os.path.basename(exe)}")
    print(f"samples: {total} total, {inside} in executable ({100.0 * inside / total:.1f}%), "
          f"{outside} outside (libc, vdso, kernel entry)")
    print()
    frames = symbolize(exe, sorted(hits))
    physical, innermost = collections.Counter(), collections.Counter()
    for a, n in hits.items():
        physical[frames[a][-1][0]] += n
        fn, loc = frames[a][0]
        innermost[f"{fn} @ {loc}"] += n
    table("by physical function (outermost frame: where the code was emitted)",
          physical, total, top)
    table("by innermost inlined frame (function @ file:line)", innermost, total, top)
    hot_instructions(exe, hits, frames, total, min(top, 12))


if __name__ == "__main__":
    main()
