#!/usr/bin/env python3
"""Check that every library function is linked into a shipped binary.

Usage: check_linked.py <build-dir>

The build directory must be configured for a link census:

  cmake -B <build-dir> -G Ninja -DCMAKE_BUILD_TYPE=Debug \\
    -DP2PANON_BUILD_TESTS=OFF \\
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \\
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"

Each function then sits in its own section, and the linker drops every
section that no binary reaches. The script reads the defined text symbols
(nm types T, t, W, w) of every libp2panon_*.a and of every executable
under <build-dir>/bench, examples and tools, demangles them, and keeps
the functions qualified under p2panon:: (lambdas and std:: instantiations
are left out). A library function that no binary links must be named in
scripts/linked_allowlist.txt, one `<demangled name> # <reason>` per line.

At -O2 an inlined callee loses its out-of-line copy to --gc-sections and
would read as unlinked, hence -O0. Functions defined in headers and used
by no library source are emitted in no library object, so the census
cannot see them.

Exits 0 when every unlinked function is allowlisted and every allowlist
entry still names an unlinked library function, 1 otherwise.
"""

import os
import re
import subprocess
import sys

ALLOWLIST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "linked_allowlist.txt")
BINARY_DIRS = ("bench", "examples", "tools")
TEXT_TYPES = {"T", "t", "W", "w"}
# Nested names in namespace p2panon, cv- or ref-qualified members included.
# Local entities (_ZZ), thunks (_ZTh) and std:: (_ZNSt, _ZSt) do not match.
OWN_SYMBOL = re.compile(r"_ZN[VKRO]*7p2panon")
CLONE_SUFFIX = re.compile(r" \[clone [^\]]*\]")


def text_symbols(path):
    """Mangled names of the text symbols `path` defines."""
    out = subprocess.run(["nm", "-P", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[1] in TEXT_TYPES:
            names.add(fields[0])
    return names


def demangle(mangled):
    """Demangled names of the p2panon:: functions among `mangled`."""
    own = sorted(name for name in mangled if OWN_SYMBOL.match(name))
    if not own:
        return set()
    out = subprocess.run(["c++filt"], input="\n".join(own) + "\n",
                         check=True, capture_output=True, text=True).stdout
    return {CLONE_SUFFIX.sub("", name) for name in out.splitlines()
            if "{lambda(" not in name}


def is_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as fh:
        return fh.read(4) == b"\x7fELF"


def walk_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
        for name in filenames:
            yield os.path.join(dirpath, name)


def load_allowlist(path):
    """{name: reason}; exits on a malformed line."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, reason = line.partition(" # ")
            if not sep or not name.strip() or not reason.strip():
                sys.exit(f"{path}:{number}: want '<name> # <reason>'")
            entries[name.strip()] = reason.strip()
    return entries


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    build = argv[1]
    libraries = sorted(p for p in walk_files(build)
                       if re.fullmatch(r"libp2panon_\w+\.a",
                                       os.path.basename(p)))
    binaries = sorted(p for d in BINARY_DIRS
                      for p in walk_files(os.path.join(build, d))
                      if is_executable(p))
    if not libraries or not binaries:
        print(f"no libp2panon_*.a or no binaries under {build}",
              file=sys.stderr)
        return 2

    in_libraries = set()
    for path in libraries:
        in_libraries |= demangle(text_symbols(path))
    in_binaries = set()
    for path in binaries:
        in_binaries |= demangle(text_symbols(path))
    allowlist = load_allowlist(ALLOWLIST)

    unlinked = in_libraries - in_binaries
    missing = sorted(unlinked - allowlist.keys())
    now_linked = sorted(allowlist.keys() & in_binaries)
    gone = sorted(allowlist.keys() - in_libraries)

    print(f"{len(libraries)} libraries, {len(binaries)} binaries: "
          f"{len(in_libraries)} library functions, "
          f"{len(in_libraries) - len(unlinked)} linked, "
          f"{len(unlinked)} unlinked, {len(allowlist)} allowlisted")
    for name in missing:
        print(f"unlinked and not allowlisted: {name}")
    for name in now_linked:
        print(f"allowlisted but linked: {name}")
    for name in gone:
        print(f"allowlisted but in no library: {name}")
    return 1 if missing or now_linked or gone else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
