"""Facts about the machine and software a result was measured on."""

from __future__ import annotations

import glob
import hashlib
import os
import platform
import subprocess


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type"), encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def code_version(root: str) -> str:
    """Hash of the package sources and the benchmark's own files."""
    digest = hashlib.sha256()
    for pattern in ("src/graphmine/*.py", "perfbench/*.py"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            with open(path, "rb") as fh:
                digest.update(os.path.relpath(path, root).encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def git_commit(root: str) -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def facts(root: str, threads: int, versions: dict) -> dict:
    """``versions`` comes from the worker, which has numpy and scipy loaded."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        **versions,
        "pinned_threads": threads,
        "git_commit": git_commit(root),
        "code_version": code_version(root),
    }
