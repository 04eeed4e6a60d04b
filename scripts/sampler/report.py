#!/usr/bin/env python3
"""Reads a dump of sampler.c and prints where the CPU time went.

    report.py DUMP [--under REGEX] [--share REGEX ...] [--children REGEX ...]
                   [--depth N] [--lines] [--top N] [--width N]

Each sample's stack is symbolized with `addr2line -f -i -C`, so a frame
inlined into another is a frame of its own, and generic arguments are
dropped from the names. --lines adds each frame's file and line (for
an outer frame, the line of the call into the next), which tells apart
the calls one function makes. Libraries are symbolized with `nm`. The
report gives:

* for each --share REGEX, the share of samples with a matching frame;
* self time: the function the PC was in;
* inclusive time: every function on the stack, each counted once a sample;
* for each --children REGEX, the tree of calls below the outermost frame
  that matches it, to --depth levels (frames under 0.5% left out);
* the callers of frames outside the executable (libc's memcmp, memcpy,
  malloc): the first executable frame above each.

--under REGEX keeps only the samples with a matching frame, and every
share is then of those. A function matches a REGEX if `re.search` finds
it in its demangled name. The executable is the lowest mapped file.
"""

import argparse
import bisect
import collections
import re
import struct
import subprocess
import sys


def parse_dump(path):
    """The samples, as (pc, word at sp, [return addresses]), and the
    executable mappings, as sorted (start, end, offset, path)."""
    samples, maps = [], []
    with open(path) as dump:
        header = dump.readline().split()
        dropped = int(header[3])
        for line in dump:
            if line == "maps\n":
                break
            words = [int(word, 16) for word in line.split()]
            samples.append((words[0], words[1], words[2:]))
        for line in dump:
            fields = line.split(maxsplit=5)
            if len(fields) == 6 and "x" in fields[1] and fields[5].startswith("/"):
                start, end = (int(x, 16) for x in fields[0].split("-"))
                maps.append((start, end, int(fields[2], 16), fields[5].strip()))
    maps.sort()
    return samples, maps, dropped


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD of a 64-bit ELF."""
    with open(path, "rb") as elf:
        head = elf.read(64)
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        elf.seek(phoff)
        table = elf.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        kind, _, offset, vaddr, _, filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if kind == 1:
            segments.append((offset, vaddr, filesz))
    return segments


class Symbolizer:
    """Maps run-time addresses to stacks of function names, innermost
    first, through each module's ELF segments and addr2line."""

    def __init__(self, maps, lines):
        self.maps = maps
        self.lines = lines
        self.starts = [m[0] for m in maps]
        self.segments = {}
        self.names = {}

    def module(self, address):
        at = bisect.bisect_right(self.starts, address) - 1
        if at >= 0 and address < self.maps[at][1]:
            return self.maps[at]
        return None

    def link_address(self, address):
        """(path, the address as the ELF file lays it out), or None."""
        found = self.module(address)
        if found is None:
            return None
        start, _, offset, path = found
        file_offset = address - start + offset
        if path not in self.segments:
            try:
                self.segments[path] = load_segments(path)
            except OSError:
                self.segments[path] = []
        for p_offset, p_vaddr, p_filesz in self.segments[path]:
            if p_offset <= file_offset < p_offset + p_filesz:
                return path, file_offset - p_offset + p_vaddr
        return path, file_offset

    def resolve(self, addresses):
        """Symbolizes every address not yet seen, one addr2line per file."""
        by_path = collections.defaultdict(set)
        for address in addresses:
            if address in self.names:
                continue
            linked = self.link_address(address)
            if linked is None:
                self.names[address] = ["[unknown]"]
            else:
                by_path[linked[0]].add((address, linked[1]))
        for path, pairs in by_path.items():
            pairs = sorted(pairs)
            if path == self.maps[0][3]:
                stacks = addr2line(path, [linked for _, linked in pairs], self.lines)
                for (address, _), frames in zip(pairs, stacks):
                    self.names[address] = frames
                continue
            # A library, most likely stripped: the symbol whose extent
            # holds the address, or none (libc's memcmp variants are local
            # symbols, gone with its static table). addr2line would name
            # the nearest symbol before it, however far.
            symbols = sized_symbols(path)
            base = path.rsplit("/", 1)[-1]
            for address, linked in pairs:
                at = bisect.bisect_right(symbols, (linked, float("inf"))) - 1
                inside = at >= 0 and linked < symbols[at][0] + symbols[at][1]
                self.names[address] = [f"{base}:{symbols[at][2] if inside else '?'}"]


def generic_args(name):
    """`name` without generic arguments, so that the copies of one generic
    function count as one: `Vec<u8>::push` reads `Vec::push`, and
    `<Vec<u8> as Clone>::clone` reads `<Vec as Clone>::clone`."""
    name = name.replace("->", "\0")
    while True:
        shorter = re.sub(r"(?<=[\w\]}])<[^<>]*>", "", name)
        if shorter == name:
            return name.replace("\0", "->")
        name = shorter


def addr2line(path, addresses, lines):
    """addr2line's inline stacks for `addresses`, innermost first; with
    `lines`, each name followed by the file and line its frame was at."""
    text = "\n".join(f"{a:#x}" for a in addresses)
    result = subprocess.run(
        ["addr2line", "-f", "-i", "-C", "-a", "-e", path],
        input=text, capture_output=True, text=True, check=False,
    )
    stacks, out = [], result.stdout.splitlines()
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            stacks.append([])
            i += 1
            continue
        name = generic_args(out[i])
        if lines and i + 1 < len(out):
            name += f" @{out[i + 1].rsplit('/', 1)[-1].split(' ')[0]}"
        stacks[-1].append(name)
        i += 2
    stacks += [["??"]] * (len(addresses) - len(stacks))
    return [frames or ["??"] for frames in stacks]


def sized_symbols(path):
    """Sorted (address, size, name) of the file's function symbols, the
    static table if it has one, the dynamic one otherwise."""
    for flags in (["-S"], ["-D", "-S"]):
        result = subprocess.run(["nm", "-C", "--defined-only", *flags, path],
                                capture_output=True, text=True, check=False)
        symbols = []
        for line in result.stdout.splitlines():
            fields = line.split(maxsplit=3)
            if len(fields) == 4 and fields[2] in "TtWwi":
                symbols.append((int(fields[0], 16), int(fields[1], 16), fields[3]))
        if symbols:
            return sorted(symbols)
    return []


def stacks(samples, symbolizer):
    """Each sample's function names, innermost first. A return address
    is symbolized one byte back, inside its call. The word at SP stands
    for the caller only where the PC lies outside the executable, in code
    that keeps no frame."""
    executable = symbolizer.maps[0][3] if symbolizer.maps else None

    def path(address):
        found = symbolizer.module(address)
        return found[3] if found else None

    walked = []
    for pc, word, frames in samples:
        calls = [frame - 1 for frame in frames]
        if path(pc) != executable and path(word) == executable:
            calls.insert(0, word - 1)
        walked.append((pc, calls))
    symbolizer.resolve({a for pc, calls in walked for a in [pc, *calls]})
    out = []
    for pc, calls in walked:
        names = list(symbolizer.names[pc])
        for call in calls:
            names += symbolizer.names[call]
        # The executable's frames above the leaf, up to the first that was
        # not inlined (addr2line names only those with their path).
        caller = []
        for name in (n for c in calls if path(c) == executable for n in symbolizer.names[c]):
            caller.append(name)
            if "::" in name or len(caller) == 3:
                break
        out.append((names, path(pc), " <- ".join(caller) or None))
    return out, executable


def short(name, width):
    return name if len(name) <= width else name[: width - 1] + "…"


def table(title, counts, total, top, width):
    print(f"\n{title}")
    for name, count in counts.most_common(top):
        print(f"{100 * count / total:6.1f}% {count:7d}  {short(name, width)}")


def children(all_stacks, pattern, depth, total, width):
    """The call tree below the outermost frame matching `pattern`."""
    tree = collections.Counter()
    under = 0
    for names, _, _ in all_stacks:
        outer = names[::-1]
        at = next((i for i, name in enumerate(outer) if pattern.search(name)), None)
        if at is None:
            continue
        under += 1
        path = tuple(outer[at + 1 : at + 1 + depth]) or ("(self)",)
        for level in range(1, len(path) + 1):
            tree[path[:level]] += 1
    print(f"\nchildren of /{pattern.pattern}/ ({under} samples), to depth {depth}")
    # Siblings by count, each followed by its own subtree.
    for path in sorted(tree, key=lambda p: [(-tree[p[:i]], p[i - 1]) for i in range(1, len(p) + 1)]):
        count = tree[path]
        if 100 * count / total < 0.5:
            continue
        indent = "  " * (len(path) - 1)
        print(f"{100 * count / total:6.1f}% {count:7d}  {indent}{short(path[-1], width)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dump")
    parser.add_argument("--under", help="keep only samples with a frame matching this")
    parser.add_argument("--share", action="append", default=[],
                        help="print the share of samples with a frame matching this")
    parser.add_argument("--children", action="append", default=[])
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--lines", action="store_true",
                        help="name each frame of the executable with its file and line")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--width", type=int, default=110)
    args = parser.parse_args()

    samples, maps, dropped = parse_dump(args.dump)
    all_stacks, executable = stacks(samples, Symbolizer(maps, args.lines))
    if args.under:
        under = re.compile(args.under)
        all_stacks = [s for s in all_stacks if any(under.search(n) for n in s[0])]
    total = len(all_stacks)
    print(f"{total} samples" + (f" under /{args.under}/" if args.under else "")
          + f" of {len(samples)} ({dropped} dropped); executable {executable}")
    if not total:
        return 1

    own = collections.Counter(stack[0][0] for stack in all_stacks)
    inclusive = collections.Counter(n for stack in all_stacks for n in set(stack[0]))
    for pattern in args.share:
        matched = re.compile(pattern)
        count = sum(any(matched.search(n) for n in stack[0]) for stack in all_stacks)
        print(f"share of /{pattern}/: {100 * count / total:.1f}% ({count})")
    table("self", own, total, args.top, args.width)
    table("inclusive", inclusive, total, args.top, args.width)
    for pattern in args.children:
        children(all_stacks, re.compile(pattern), args.depth, total, args.width)

    outside = collections.Counter()
    for names, module, caller in all_stacks:
        if module != executable:
            outside[f"{names[0]}  <-  {short(caller or '[unknown]', args.width - 40)}"] += 1
    table("outside the executable, by caller", outside, total, args.top, args.width)
    return 0


if __name__ == "__main__":
    sys.exit(main())
