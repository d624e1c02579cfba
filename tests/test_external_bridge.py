"""Line protocol tests for the external model process bridge."""

import sys
import textwrap
import time

import numpy as np
import pytest

from stableshap import ExternalProcessModel, ModelBridgeError, models

LINEAR_CHILD = textwrap.dedent("""
    import sys

    def serve():
        batch = []
        for line in sys.stdin:
            line = line.strip()
            if line == "":
                for row in batch:
                    values = [float(v) for v in row.split(",")]
                    print(sum(w * v for w, v in enumerate(values, start=1)))
                sys.stdout.flush()
                batch = []
            else:
                batch.append(line)

    serve()
""")

BROKEN_CHILD = textwrap.dedent("""
    import sys
    for line in sys.stdin:
        if line.strip() == "":
            print("not-a-number")
            sys.stdout.flush()
            break
""")

QUITTER_CHILD = "import sys; sys.exit(3)"

# answers one batch, then ignores the end of its input
SLEEPER_CHILD = textwrap.dedent("""
    import sys, time
    for line in sys.stdin:
        if line.strip() == "":
            print(0.0)
            sys.stdout.flush()
            break
    time.sleep(60)
""")


def _script(tmp_path, name, body) -> str:
    path = tmp_path / name
    path.write_text(body)
    return f"{sys.executable} {path}"


class TestExternalProcessModel:
    def test_batched_predictions_in_order(self, tmp_path):
        cmd = _script(tmp_path, "linear.py", LINEAR_CHILD)
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        with ExternalProcessModel(cmd, 3) as model:
            out = model.predict(rows)
            assert np.allclose(out, [1.0, 2.0, 6.0])
            # second batch over the same process
            out2 = model.predict(rows * 2)
            assert np.allclose(out2, [2.0, 4.0, 12.0])

    def test_full_precision_round_trip(self, tmp_path):
        cmd = _script(tmp_path, "linear.py", LINEAR_CHILD)
        value = 0.1 + 0.2  # not exactly representable in shorter decimals
        with ExternalProcessModel(cmd, 2) as model:
            out = model.predict(np.array([[value, 0.0]]))
            assert out[0] == value

    def test_malformed_reply_names_batch(self, tmp_path):
        cmd = _script(tmp_path, "broken.py", BROKEN_CHILD)
        with ExternalProcessModel(cmd, 2) as model:
            with pytest.raises(ModelBridgeError, match="batch 0.*malformed"):
                model.predict(np.zeros((2, 2)))

    def test_dead_process_names_batch(self, tmp_path):
        cmd = _script(tmp_path, "quit.py", QUITTER_CHILD)
        with ExternalProcessModel(cmd, 2) as model:
            with pytest.raises(ModelBridgeError, match="batch 0"):
                model.predict(np.zeros((2, 2)))

    @pytest.mark.parametrize("child", ["linear", "quitter"])
    def test_close_releases_both_pipes(self, tmp_path, child):
        body = {"linear": LINEAR_CHILD, "quitter": QUITTER_CHILD}[child]
        model = ExternalProcessModel(_script(tmp_path, "child.py", body), 2)
        if child == "quitter":
            with pytest.raises(ModelBridgeError, match="batch 0"):
                model.predict(np.zeros((2, 2)))
        else:
            model.predict(np.zeros((2, 2)))
        proc = model._proc
        model.close()
        assert proc.stdin.closed and proc.stdout.closed
        assert proc.returncode is not None

    def test_restart_releases_the_dead_child(self, tmp_path):
        model = ExternalProcessModel(_script(tmp_path, "quit.py", QUITTER_CHILD), 2)
        with model:
            with pytest.raises(ModelBridgeError):
                model.predict(np.zeros((1, 2)))
            dead = model._proc
            dead.wait(timeout=10)
            with pytest.raises(ModelBridgeError, match="batch 1"):
                model.predict(np.zeros((1, 2)))
            assert model._proc is not dead
            assert dead.stdin.closed and dead.stdout.closed

    def test_close_kills_a_child_that_ignores_end_of_input(self, tmp_path, monkeypatch):
        monkeypatch.setattr(models, "CLOSE_TIMEOUT_S", 0.2)
        model = ExternalProcessModel(_script(tmp_path, "sleeper.py", SLEEPER_CHILD), 2)
        assert model.predict(np.zeros((1, 2)))[0] == 0.0
        proc = model._proc
        t0 = time.monotonic()
        model.close()
        assert time.monotonic() - t0 < 10.0
        assert proc.poll() is not None
