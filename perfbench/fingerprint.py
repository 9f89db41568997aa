"""The machine and build a result set was measured on.

Numbers from different CPUs, ISA levels or compiler flags are not
comparable; compare.py refuses to diff result sets whose fingerprints differ
in anything but the CCS_* environment.
"""

import os
import platform
import subprocess
from pathlib import Path

# ISA flags that change the speed of ccsmine's bitset and kernel loops.
ISA_FLAGS = ("sse4_2", "popcnt", "avx", "avx2", "bmi2", "fma", "avx512f",
             "avx512bw", "avx512_vpopcntdq")


def cpu():
    model, flags = platform.processor() or "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key == "model name":
                model = value.strip()
            elif key == "flags":
                flags = set(value.split())
                break
    except OSError:
        pass
    return model, [f for f in ISA_FLAGS if f in flags]


def cmake_cache(build_dir):
    values = {}
    try:
        for line in (Path(build_dir) / "CMakeCache.txt").read_text().splitlines():
            name, sep, value = line.partition("=")
            if sep and ":" in name and not line.startswith(("#", "//")):
                values[name.split(":", 1)[0]] = value
    except OSError:
        pass
    return values


def compiler(path):
    if not path:
        return "unknown"
    try:
        out = subprocess.run([path, "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        return out.stdout.splitlines()[0] if out.stdout else path
    except (OSError, subprocess.SubprocessError):
        return path


def collect(build_dir):
    model, isa = cpu()
    cache = cmake_cache(build_dir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "cpu": model,
        "isa": isa,
        "nproc": os.cpu_count(),
        "compiler": compiler(cache.get("CMAKE_CXX_COMPILER")),
        "build_type": build_type,
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")])),
        "ccs_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("CCS_")},
    }
