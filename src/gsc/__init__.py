"""Noise-robust cross-modal retrieval training on synthetic paired data.

Dual small encoders are co-trained with purified cross-modal and intra-modal
contrastive losses; per-sample soft correspondence labels come from
structural agreement (in-batch indicator + mixture-model posterior) and are
smoothed across epochs. Everything is seeded and deterministic.

Importing the package pins BLAS to one thread (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``) unless the environment sets them:
at these matrix sizes one thread is faster. It takes effect only if numpy
has not been imported before. That pin is all the import runs: no submodule
and no numpy is loaded, and every name is taken from its module
(``gsc.trainer.run``, ``from gsc.model import encode``).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
