"""The heap policy of ``pgmatch._heap``: training steps reuse the heap
pages earlier steps freed instead of faulting fresh ones in, and
``pgmatch`` imports and trains where the C library has no ``mallopt``
or ``malloc_trim``, and importing it leaves OpenSSL's libcrypto out of
the process."""

import ctypes
import os
import resource
import subprocess
import sys

import pytest

import recipe_digests
from pgmatch.data import generate_dataset
from pgmatch.training import train

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class FaultsAtEval:
    """A ``log_fh`` that notes the process's minor page faults at every
    eval record, that is, at the end of every epoch."""

    def __init__(self):
        self.counts = []

    def write(self, line):
        if '"type": "eval"' in line:
            self.counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    def flush(self):
        pass


@pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
def test_steady_state_epochs_take_few_page_faults():
    """After its first epoch, a reference training took about 15,000
    minor page faults over its other 19 epochs when the heap returned
    the steps' temporaries to the OS; it takes a few dozen now."""
    name, dataset_args, config = next(recipe_digests.recipes())
    assert name == "reference" and config.epochs == 20
    log = FaultsAtEval()
    train(config, generate_dataset(**dataset_args), log_fh=log)
    assert len(log.counts) == 20
    assert log.counts[-1] - log.counts[0] < 500


@pytest.mark.parametrize("fake_cdll", [
    "def cdll(name):\n    raise OSError('no C library')",
    "def cdll(name):\n    return object()",
], ids=["no_libc", "no_mallopt"])
def test_import_and_train_without_mallopt(fake_cdll):
    code = "\n".join([
        "import ctypes", fake_cdll, "ctypes.CDLL = cdll",
        "import pgmatch",
        "from pgmatch.config import ModelConfig",
        "data = pgmatch.generate_dataset(classes=4, regions=2, tokens=3, dim=4)",
        "config = ModelConfig(feature_dim=4, word_dim=4, hidden=4, embed_dim=4,",
        "                     decoder_dim=4, n_actions=4, batch_size=4, epochs=1)",
        "print(pgmatch.train(config, data).best_epoch)",
    ])
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"


def test_import_leaves_libcrypto_unloaded():
    """``hashlib`` loads libcrypto, about 3.4 MB of RSS that nothing on the
    train or read path uses; only fingerprinting a dataset and saving a
    checkpoint import it."""
    code = "import sys, pgmatch, pgmatch.cli; print('_hashlib' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
