#!/usr/bin/env python3
"""Check that no code compiled for AVX2/AVX-512 can leak into baseline code.

Only simd_backend.cpp (-mavx2) and avx512_backend.cpp (-mavx512f
-mavx512vl) are built with ISA flags. A function they define with weak
(vague) linkage -- an inline function, a template instantiation, a
typeinfo -- is emitted in every object that uses it, and the linker
keeps one copy of it for the whole program: if it keeps the copy from
an ISA object, baseline code calls ISA code and faults on a CPU
without that ISA. So, in each ISA object of libman.a, this fails on:

  * any defined weak symbol whose name involves man:: ;
  * any defined weak symbol whose code is VEX/EVEX-encoded (a `v`
    mnemonic) or touches a ymm/zmm register;
  * any external (global) definition other than the registry
    accessors and the shaped-conv entry point, or one of those whose
    code is VEX/EVEX-encoded (it runs before the CPUID probe).

Usage: check_isa_isolation.py path/to/libman.a

Exit status: 0 clean, 1 violations found, 77 skipped (ar, nm or
objdump missing, or both ISA paths compiled out). An object whose ISA
is compiled out (no ymm/zmm register in it) is reported and skipped.
"""
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SKIP = 77

# Object -> the register file whose presence shows its ISA is compiled in.
OBJECTS = {
    "simd_backend.cpp.o": "ymm",
    "avx512_backend.cpp.o": "zmm",
}

ALLOWED_EXTERNAL = (
    "man::backend::detail::simd_backend()",
    "man::backend::detail::avx512_backend()",
    "man::backend::detail::conv_run_shaped(",
)

WEAK_TYPES = set("VWuvw")
VECTOR_REGISTER = re.compile(r"%[yz]mm\d")
VEX_MNEMONIC = re.compile(r"^\s*[0-9a-f]+:\s+v[a-z0-9]+\b")
FUNCTION_HEADER = re.compile(r"^[0-9a-f]+ <(.*)>:$")


def run(*args):
    return subprocess.run(args, check=True, capture_output=True,
                          text=True).stdout


def defined_symbols(obj):
    """(type, demangled name) of every symbol the object defines."""
    symbols = []
    for line in run("nm", "--defined-only", "-C", str(obj)).splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3:
            symbols.append((parts[1], parts[2]))
    return symbols


def disassembly(obj):
    """Demangled function name -> its disassembled instruction lines."""
    functions = {}
    current = None
    for line in run("objdump", "-d", "-C", "--no-show-raw-insn",
                    str(obj)).splitlines():
        header = FUNCTION_HEADER.match(line)
        if header:
            current = functions.setdefault(header.group(1), [])
        elif current is not None and line.strip():
            current.append(line)
    return functions


def uses_vector_isa(lines):
    return any(VECTOR_REGISTER.search(l) or VEX_MNEMONIC.match(l)
               for l in lines)


def check_object(obj, register):
    """Violations found in one ISA object, or None if its ISA is out."""
    code = disassembly(obj)
    if not any(f"%{register}" in l for lines in code.values() for l in lines):
        return None
    violations = []
    for kind, name in defined_symbols(obj):
        if kind in WEAK_TYPES:
            if "man::" in name:
                violations.append(f"weak man:: symbol ({kind}): {name}")
            elif uses_vector_isa(code.get(name, [])):
                violations.append(f"weak symbol with vector code: {name}")
        elif kind.isupper():
            if not name.startswith(ALLOWED_EXTERNAL):
                violations.append(f"unexpected external definition: {name}")
            elif uses_vector_isa(code.get(name, [])):
                violations.append(f"external entry with vector code: {name}")
    return violations


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    missing = [t for t in ("ar", "nm", "objdump") if shutil.which(t) is None]
    if missing:
        print(f"SKIP: {', '.join(missing)} not found")
        return SKIP
    library = Path(sys.argv[1])
    members = run("ar", "t", str(library)).split()
    checked = 0
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for member, register in OBJECTS.items():
            if member not in members:
                print(f"FAIL: {member} not in {library}")
                failed = True
                continue
            obj = Path(tmp) / member
            obj.write_bytes(subprocess.run(("ar", "p", str(library), member),
                                           check=True,
                                           capture_output=True).stdout)
            violations = check_object(obj, register)
            if violations is None:
                print(f"skip {member}: no {register} code (ISA compiled out)")
                continue
            checked += 1
            for violation in violations:
                print(f"FAIL {member}: {violation}")
            failed = failed or bool(violations)
            if not violations:
                print(f"ok   {member}")
    if failed:
        return 1
    if checked == 0:
        print("SKIP: both ISA paths compiled out")
        return SKIP
    return 0


if __name__ == "__main__":
    sys.exit(main())
