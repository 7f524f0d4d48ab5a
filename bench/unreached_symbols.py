#!/usr/bin/env python3
"""Lists the src/ functions that no shipped binary links.

Every bench/ and examples/ target and the bench_e2e harness are built at
-O0 with one section per function and data object, and linked with
--gc-sections, so a binary keeps exactly the functions it can reach.
-fkeep-inline-functions makes every translation unit emit the inline
functions it sees, header-defined members included, so the archives
define them too. A `flowtime::` function that some src/ archive
(libft_*.a) defines and no binary keeps has no caller outside the tests.
Special members the compiler generates (implicit constructors,
destructors and assignments) have no source to delete, so they are left
out: -g1 gives every function a DWARF subprogram, and the compiler marks
those with DW_AT_artificial.

    python3 bench/unreached_symbols.py [--jobs N]

The output is one block per library, sorted, then a total. Builds go to
build-unreached/main and build-unreached/bench_e2e (git ignores build-*/);
a rerun rebuilds incrementally. A full build takes about 5 minutes on
4 cores, so this is a tool to run by hand, not a ctest.
"""

import argparse
import glob
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, "build-unreached")
FLAGS = ["-DCMAKE_BUILD_TYPE=None",
         "-DCMAKE_CXX_FLAGS=-O0 -g1 -ffunction-sections -fdata-sections "
         "-fkeep-inline-functions",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"]
# A nested name in namespace flowtime, const/volatile/ref-qualified or not.
MANGLED_RE = re.compile(r"_ZN[KVRO]*8flowtime")
TARGET_RE = re.compile(r"^\s*ft_add_(?:g?bench|example)\((\w+)", re.M)
# A DIE header in `readelf --debug-dump=info`: " <depth><offset>: Abbrev
# Number: N (DW_TAG_...)".
DIE_RE = re.compile(r"^\s*<\d+><[0-9a-f]+>: Abbrev Number: \d+ \((\w+)\)")


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def targets(subdir):
    """The executables bench/ or examples/ declares."""
    with open(os.path.join(ROOT, subdir, "CMakeLists.txt")) as f:
        return TARGET_RE.findall(f.read())


def build(source, build_dir, names, jobs):
    """Configures `source` into `build_dir` and builds `names`.

    Configures on every run, so a build tree made with other FLAGS picks
    them up (and rebuilds) instead of keeping its old ones.
    """
    configure = ["cmake", "-S", source, "-B", build_dir, *FLAGS]
    if (shutil.which("ninja") and
            not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt"))):
        configure += ["-G", "Ninja"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("cmake configure failed for " + source)
    cmd = ["cmake", "--build", build_dir, "-j", str(jobs), "--target", *names]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed in " + build_dir)


def functions(path):
    """Demangled names of the flowtime:: functions `path` defines.

    Matched on the mangled name, so function templates (whose demangled
    form starts with the return type) count; local entities such as
    lambdas follow their enclosing function and are left out.
    """
    out = subprocess.run(["nm", "--defined-only", path], capture_output=True,
                         text=True, check=True).stdout
    mangled = [parts[2] for parts in (line.split(" ", 2)
                                      for line in out.splitlines())
               if len(parts) == 3 and parts[1] in "TtWw" and
               MANGLED_RE.match(parts[2])]
    return demangle(mangled)


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         capture_output=True, text=True, check=True).stdout
    return set(out.splitlines())


def compiler_generated(path):
    """Demangled names of the flowtime:: special members `path` defines
    that the compiler generated: their DWARF subprogram carries
    DW_AT_artificial. Its linkage name is the unified constructor or
    destructor (C4, D4), which demangles like the emitted variants."""
    artificial = []
    die_tag, linkage, is_artificial = None, None, False

    def close_die():
        if (die_tag == "DW_TAG_subprogram" and is_artificial and
                linkage and MANGLED_RE.match(linkage)):
            artificial.append(linkage)

    with subprocess.Popen(["readelf", "--wide", "--debug-dump=info", path],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True) as readelf:
        for line in readelf.stdout:
            die = DIE_RE.match(line)
            if die:
                close_die()
                die_tag, linkage, is_artificial = die.group(1), None, False
            elif "DW_AT_linkage_name" in line:
                linkage = line.rsplit(" ", 1)[-1].strip()
            elif "DW_AT_artificial" in line:
                is_artificial = True
        close_die()
    if readelf.returncode != 0:
        fail("readelf failed on " + path)
    return demangle(artificial)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int,
                        default=max(1, min(4, os.cpu_count() or 1)))
    args = parser.parse_args()

    main_dir = os.path.join(BUILD_ROOT, "main")
    e2e_dir = os.path.join(BUILD_ROOT, "bench_e2e")
    bench, examples = targets("bench"), targets("examples")
    build(ROOT, main_dir, bench + examples, args.jobs)
    build(os.path.join(ROOT, "bench_e2e"), e2e_dir, ["bench_e2e"], args.jobs)

    binaries = [os.path.join(main_dir, "bench", t) for t in bench]
    binaries += [os.path.join(main_dir, "examples", t) for t in examples]
    binaries.append(os.path.join(e2e_dir, "bench_e2e"))
    linked = set()
    for binary in binaries:
        linked |= functions(binary)

    archives = sorted(glob.glob(os.path.join(main_dir, "src", "*",
                                             "libft_*.a")))
    if not archives:
        fail("no libft_*.a under " + os.path.join(main_dir, "src"))
    total = 0
    for archive in archives:
        unreached = sorted(functions(archive) - linked -
                           compiler_generated(archive))
        total += len(unreached)
        name = os.path.basename(archive)[len("lib"):-len(".a")]
        print("%s: %d" % (name, len(unreached)))
        for symbol in unreached:
            print("  " + symbol)
    print("total: %d unreached flowtime:: functions in %d binaries" %
          (total, len(binaries)))


if __name__ == "__main__":
    main()
