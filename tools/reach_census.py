#!/usr/bin/env python3
"""Link-time reachability census of src/.

Builds every shipped binary -- the bench/ and examples/ programs and the
perfbench/ program -- at -O0 with -ffunction-sections -fdata-sections and
-Wl,--gc-sections, and fails when a tpgnn:: function defined in a src/
object is linked into none of them.

Each function is its own input section, so a function is reached when some
binary's link map keeps its section. Functions named on
tools/reach_allowlist.txt (test hooks, client halves of served frames) are
GC roots, not report filters: every binary links with -Wl,-u,<mangled name>
for each of them, so everything they call counts as reached too. Their
mangled names exist only once src/ has compiled, so the binaries are linked
twice: once to compile the archives, once more with the roots in a linker
response file.

    python3 tools/reach_census.py

Exits nonzero when a function is unreached or an allowlist entry matches no
symbol. The build tree is build-census/ at the repo root.
"""

import glob
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "build-census")
ROOTS_RSP = os.path.join(OUT, "roots.rsp")
ALLOWLIST = os.path.join(ROOT, "tools", "reach_allowlist.txt")

# CMake's default GNU link rule plus a per-target link map.
LINK_RULE = ("<CMAKE_CXX_COMPILER> <FLAGS> <CMAKE_CXX_LINK_FLAGS> <LINK_FLAGS> "
             "<OBJECTS> -o <TARGET> <LINK_LIBRARIES> -Wl,-Map=<TARGET>.map")

# Mangled names in namespace tpgnn, including its lambdas and local classes.
TPGNN_MANGLED = re.compile(r"^_ZZ?N[KVRO]*5tpgnn")
# objdump -t: value, 7 flag characters, section, size, name.
SYMBOL_LINE = re.compile(r"^[0-9a-f]+ (.{7}) (\S+)\s+[0-9a-f]+ (?:\.hidden )?(\S+)$")
# A kept input section in a link map; long names wrap onto the next line.
MAP_SECTION = re.compile(
    r"^ (\.text\.\S+)\s+0x[0-9a-f]+\s+0x[0-9a-f]+ (.+)$", re.MULTILINE)
MEMBER_HEADER = re.compile(r"^(\S+):\s+file format ")
ARCHIVE_MEMBER = re.compile(r"^(.*\.a)\((.*)\)$")


def run(cmd):
    subprocess.run(cmd, check=True, cwd=ROOT)


def configure(source, tree):
    run(["cmake", "-S", source, "-B", tree, "-DCMAKE_BUILD_TYPE=None",
         "-DTPGNN_BUILD_TESTS=OFF",
         "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections @" + ROOTS_RSP,
         "-DCMAKE_CXX_LINK_EXECUTABLE=" + LINK_RULE])


def build(tree):
    run(["cmake", "--build", tree, "-j", str(os.cpu_count() or 1)])


def link_maps(tree):
    return glob.glob(os.path.join(tree, "**", "*.map"), recursive=True)


def demangle(names, *flags):
    proc = subprocess.run(["c++filt", *flags], input="\n".join(names),
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def defined_functions(archives):
    """Returns {key: (archive member, [mangled names])} for the tpgnn::
    functions the archives define. A local function's key names its
    object; any other function is keyed by its section alone, because the
    link may keep another object's copy of it."""
    functions = {}
    for archive in archives:
        dump = subprocess.run(["objdump", "-t", archive], capture_output=True,
                              text=True, check=True).stdout
        member = None
        for line in dump.splitlines():
            header = MEMBER_HEADER.match(line)
            if header:
                member = header.group(1)
                continue
            m = SYMBOL_LINE.match(line)
            if not m or m.group(1)[6] != "F" or not m.group(2).startswith(".text"):
                continue
            flags, section, name = m.groups()
            if not TPGNN_MANGLED.match(name):
                continue
            where = "%s(%s)" % (os.path.basename(archive), member)
            key = (where, section) if flags[0] == "l" else (None, section)
            functions.setdefault(key, (where, []))[1].append(name)
    return functions


def kept_sections(maps):
    """Returns the keys of every input section some link map keeps."""
    kept = set()
    for path in maps:
        with open(path) as f:
            text = f.read().split("Linker script and memory map", 1)[-1]
        for section, origin in MAP_SECTION.findall(text):
            kept.add((None, section))
            m = ARCHIVE_MEMBER.match(origin.strip())
            if m:
                kept.add(("%s(%s)" % (os.path.basename(m.group(1)), m.group(2)),
                          section))
    return kept


def read_allowlist():
    entries = []
    with open(ALLOWLIST) as f:
        for line in f:
            entry = line.split("#", 1)[0].strip()
            if entry:
                entries.append(entry)
    return entries


def main():
    os.makedirs(OUT, exist_ok=True)
    if not os.path.exists(ROOTS_RSP):
        open(ROOTS_RSP, "w").close()
    trees = [(ROOT, os.path.join(OUT, "main")),
             (os.path.join(ROOT, "perfbench"), os.path.join(OUT, "perfbench"))]
    for source, tree in trees:
        configure(source, tree)
        build(tree)

    archives = sorted(glob.glob(os.path.join(OUT, "main", "src", "*", "*.a")))
    functions = defined_functions(archives)

    # Resolve the allowlist to exported mangled names: an entry names a
    # function or a class, without its parameters.
    entries = read_allowlist()
    exported = sorted({n for key, (_, names) in functions.items()
                       if key[0] is None for n in names})
    qualified = dict(zip(exported, demangle(exported, "-p")))
    roots, unmatched = [], []
    for entry in entries:
        full = "tpgnn::" + entry
        hits = [n for n, q in qualified.items()
                if q == full or q.startswith(full + "::")]
        if not hits:
            unmatched.append(entry)
        roots.extend(hits)
    with open(ROOTS_RSP, "w") as f:
        f.writelines("-Wl,-u,%s\n" % n for n in sorted(set(roots)))

    # Second link, now with the roots: remove every binary and its map so
    # each relinks.
    for _, tree in trees:
        for link_map in link_maps(tree):
            for path in (link_map, link_map[:-len(".map")]):
                if os.path.exists(path):
                    os.remove(path)
        build(tree)
    maps = [m for _, tree in trees for m in link_maps(tree)]
    kept = kept_sections(maps)

    unreached = sorted((where, names[0]) for key, (where, names)
                       in functions.items() if key not in kept)
    shown = demangle([name for _, name in unreached])
    print("reach census: %d binaries, %d tpgnn:: functions defined in src/, "
          "%d unreached, %d allowlist roots"
          % (len(maps), len(functions), len(unreached), len(set(roots))))
    for (where, _), name in zip(unreached, shown):
        print("  unreached: %s  [%s]" % (name, where))
    for entry in unmatched:
        print("  allowlist entry matches no symbol: %s" % entry)
    return 1 if unreached or unmatched else 0


if __name__ == "__main__":
    sys.exit(main())
