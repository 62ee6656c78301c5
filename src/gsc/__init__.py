"""Noise-robust cross-modal retrieval training on synthetic paired data.

Dual small encoders are co-trained with purified cross-modal and intra-modal
contrastive losses; per-sample soft correspondence labels come from
structural agreement (in-batch indicator + mixture-model posterior) and are
smoothed across epochs. Everything is seeded and deterministic.

Importing the package pins BLAS to one thread (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``) unless the environment sets them:
at these matrix sizes one thread is faster. It takes effect only if numpy
has not been imported before.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .numerics import AdamState, NumericalError, adam_step, cosine, derive_rng, softmax_rows
from .synthdata import GenSpec, PairDataset, generate, inject_noise, load_dataset, save_dataset, split
from .model import Encoder, encode, sim_matrix
from .discrimination import (GmmModel, SoftLabels, combine_labels, cross_modal_indicator,
                             embedding_structure_score, ensemble_update, gmm_fit, gmm_posterior,
                             intra_structure_score)
from .losses import LossReport, fd_check, grad_total, loss_cm, loss_im
from .evalmetrics import (DetectionReport, RetrievalReport, assemble_report,
                          detection_metrics, recall_at_k, retrieval_report)
from .trainer import (MODE_SPECS, MODES, ModeSpec, RunResult, TrainConfig, evaluate_retrieval,
                      init_state, run, train_epoch)

__version__ = "0.1.0"
