"""``oracle-check`` output pinned byte for byte.

A SHA-256 over the command's stdout and exit code on 40 instances drawn with
the generator settings of the benchmark's ``verify`` workload (15-edge files
with up to 6 sight lines).  The digest was recorded with the oracle that
computed on ``Fraction`` groups keyed by ``(seen_up, seen_down)`` tuples; the
integer oracle must print the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import time

from sightpath import GeneratorConfig, generate_instance
from sightpath.cli import main
from sightpath.io import save_instance

VERIFY_CONFIG = GeneratorConfig(
    n_min=7, n_max=7, edge_density=0.8, sight_density=0.2, max_edges=15, max_sights=6, seed=1010
)
COUNT = 40
DIGEST = "07c2165659f9e94736850a4dcb4d3b342cd894688bcdc2239e6afc316ad9bb5e"


def transcript_digest(directory) -> str:
    """SHA-256 of every instance's ``oracle-check`` stdout followed by its exit code."""
    digest = hashlib.sha256()
    for index in range(COUNT):
        path = directory / f"verify-{index:02d}.json"
        save_instance(generate_instance(VERIFY_CONFIG, index), path)
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["oracle-check", str(path)])
        digest.update(f"{out.getvalue()}exit {code}\n".encode())
    return digest.hexdigest()


def test_oracle_check_prints_the_recorded_bytes(tmp_path):
    began = time.perf_counter()
    assert transcript_digest(tmp_path) == DIGEST
    assert time.perf_counter() - began < 10  # about 1 s on a 2-CPU host
