"""Host-speed calibration for wall times measured on a shared host.

On a host shared with other tenants the same work can take 1.5 times
longer from one ten-second stretch to the next, and the program's own
wall time cannot tell that apart from a regression.  A fixed
calibration kernel, timed right before and after each measured step,
on the CPU the step ran on, shows how much slower than a reference
host the host runs at that moment (its *slowdown*), and the step's
wall time is divided by it.

The kernel is a small copy of the figure pipeline's steps at the
workload's sizes, written with numpy alone: a random orthogonal matrix
by Python-level Gram-Schmidt with re-orthogonalisation, a covariance
from it, Cholesky sampling of ``rows`` records, additive noise, the
sample covariance and its ``eigh``, a PCA projection and an RMSE, for
m = 20, 60 and 100.  On the shared host this copy slowed down with the
pipelines more closely than a generic mix of streaming, Gram-Schmidt
and LAPACK did (see README.md).  It runs in a helper process with one
BLAS thread and without ``repro``, so its memory is not counted in the
workload's peak RSS, and no change to the program, or to the program's
BLAS threads, alters it.

Run ``python3 -m perfbench.hostspeed [ROWS]`` to start a helper by
hand: it times the kernel once per line read from standard input.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

#: Kernel time, in seconds, on the reference host, by record count
#: (about the kernel's time on a quiet 2-vCPU host).
REFERENCE_S = {2000: 0.07, 20000: 0.25}

ROOT = pathlib.Path(__file__).resolve().parent.parent


def serve(rows: int) -> None:
    """Helper loop: print the kernel's time once per input line."""
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[variable] = "1"  # before numpy loads
    import numpy

    rng = numpy.random.default_rng(0)
    spectra = {m: numpy.linspace(1.0, 10.0, m) for m in (20, 60, 100)}

    def orthonormal(gaussian: numpy.ndarray) -> numpy.ndarray:
        basis = numpy.empty_like(gaussian)
        for j in range(gaussian.shape[1]):
            column = gaussian[:, j].copy()
            for _ in range(2):
                for i in range(j):
                    column -= (basis[:, i] @ column) * basis[:, i]
            basis[:, j] = column / numpy.linalg.norm(column)
        return basis

    def kernel() -> float:
        start = time.perf_counter()
        for m, spectrum in spectra.items():
            q = orthonormal(rng.standard_normal((m, m)))
            original = rng.standard_normal((rows, m)) @ numpy.linalg.cholesky(
                (q * spectrum) @ q.T
            ).T
            disguised = original + 2.0 * rng.standard_normal((rows, m))
            centre = disguised.mean(axis=0)
            _, vectors = numpy.linalg.eigh(numpy.cov(disguised, rowvar=False))
            top = vectors[:, m // 2 :]
            estimate = (disguised - centre) @ top @ top.T + centre
            numpy.sqrt(numpy.mean((estimate - original) ** 2))
        return time.perf_counter() - start

    kernel()  # first-call costs are not host speed
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)


def _current_cpu() -> int | None:
    """The CPU this process last ran on (Linux only; else ``None``)."""
    try:
        stat = pathlib.Path("/proc/self/stat").read_text()
        # Field 39; the fields after the parenthesised name start at 3.
        return int(stat.rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class HostSpeed:
    """Client of a calibration helper process; close it when done."""

    def __init__(self, rows: int = 2000) -> None:
        self._reference = REFERENCE_S[rows]
        self._helper = subprocess.Popen(
            [sys.executable, "-m", "perfbench.hostspeed", str(rows)],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def slowdown(self) -> float:
        """How many times slower than the reference host the host runs now.

        The helper is first moved to the CPU this process runs on: the
        vCPUs of a shared host can run at different speeds, and the
        kernel should time the one the measured work ran on.
        """
        assert self._helper.stdin is not None and self._helper.stdout is not None
        cpu = _current_cpu()
        if cpu is not None:
            try:
                os.sched_setaffinity(self._helper.pid, {cpu})
            except OSError:
                pass  # the CPU left this process's set; time it anywhere
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError("the host-speed helper process exited")
        return float(reply) / self._reference

    @staticmethod
    def scale(wall: float, slowdown: float) -> float:
        """``wall`` rescaled to the reference host."""
        return wall / slowdown

    def close(self) -> None:
        """Stop the helper and wait for it to end."""
        if self._helper.stdin is not None:
            self._helper.stdin.close()
        try:
            self._helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        if self._helper.stdout is not None:
            self._helper.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


if __name__ == "__main__":
    serve(int(sys.argv[1]) if len(sys.argv) > 1 else 2000)
