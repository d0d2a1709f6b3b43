"""Run provenance: the manifest embedded in every dump and result file.

A benchmark result (or an exported trace) is only auditable if it says
*what produced it*: which revision of the code, which interpreter,
which platform, which seed and scenario parameters.  This module builds
that manifest as a plain JSON-safe dict so every
:meth:`~repro.obs.recorder.Recorder.dump`, trace export and
``bench/run.py`` result is self-describing::

    {"schema": "repro-manifest/1",
     "python": "3.11.7", "platform": "Linux-...",
     "git_sha": "8257fb1..." | None,
     "created_unix": 1754..., <caller extras: seed, scenario, ...>}

The git SHA is resolved once per process (a ``git rev-parse`` in the
package's source directory) and cached; outside a checkout — e.g. an
installed wheel — it is ``None`` rather than an error, so provenance
degrades gracefully instead of breaking dumps.

Standard-library-only by contract (``stdlib_only`` in
``docs/layering.toml``): the manifest must stay importable from the
lowest layers, exactly like the recorder that embeds it.
"""

from __future__ import annotations

import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Optional

MANIFEST_SCHEMA = "repro-manifest/1"

#: Sentinel distinguishing "not resolved yet" from "resolved to None".
_UNRESOLVED = "<unresolved>"
_git_sha_cache: Optional[str] = _UNRESOLVED


def git_sha() -> Optional[str]:
    """The HEAD commit of the checkout containing this package, if any.

    Resolved once per process and cached (including a ``None`` outcome),
    so repeated :func:`build_manifest` calls cost one dict build, not one
    subprocess each.
    """
    global _git_sha_cache
    if _git_sha_cache != _UNRESOLVED:
        return _git_sha_cache
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
        sha = proc.stdout.strip()
        _git_sha_cache = sha if proc.returncode == 0 and sha else None
    except (OSError, subprocess.SubprocessError):
        _git_sha_cache = None
    return _git_sha_cache


def build_manifest(**extra: Any) -> Dict[str, Any]:
    """A fresh run manifest; ``extra`` fields (seed, scenario params,
    algorithm names, ...) are merged in and may override the defaults —
    callers that captured ``created_unix`` earlier pass it here so
    repeated dumps of one run stay identical."""
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "created_unix": time.time(),
    }
    manifest.update(extra)
    return manifest
