"""Pin BLAS to one thread before anything imports numpy, as CI and the benchmark do.

The GP matrices are tiny, so BLAS threads only contend with each other and
with a study's pool workers; unpinned, the study acceptance tests run
several times slower. A value already set in the environment is kept.
The fixtures here serve more than one test file.
"""

import os

import pytest

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


@pytest.fixture()
def started_children(monkeypatch):
    """Every ExternalDiscipline built during the test; holding them keeps ``__del__`` from closing any."""
    from mdots.external import ExternalDiscipline  # imported here, after the pin above

    started = []
    init = ExternalDiscipline.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        started.append(self)

    monkeypatch.setattr(ExternalDiscipline, "__init__", recording_init)
    return started
