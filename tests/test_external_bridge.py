"""Line protocol tests for the external model process bridge."""

import select
import sys
import textwrap
import threading
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

# answers each line as soon as it reads it
STREAMING_CHILD = textwrap.dedent("""
    import sys
    for line in sys.stdin:
        if line.strip():
            print(sum(float(v) for v in line.split(",")), flush=True)
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

    def test_a_stalled_child_is_killed_at_the_read_deadline(self, tmp_path, monkeypatch):
        model = ExternalProcessModel(_script(tmp_path, "sleeper.py", SLEEPER_CHILD), 2)
        with model:
            assert model.predict(np.zeros((1, 2)))[0] == 0.0
            proc = model._proc
            monkeypatch.setattr(models, "READ_TIMEOUT_S", 0.2)
            t0 = time.monotonic()
            with pytest.raises(ModelBridgeError, match="batch 1.*0 of 3.*killed"):
                model.predict(np.zeros((3, 2)))
            assert time.monotonic() - t0 < 2.0
            assert proc.poll() is not None
            assert proc.stdin.closed and proc.stdout.closed

    def test_a_line_split_across_writes(self, tmp_path):
        # the last newline of each answer comes in a write of its own
        child = textwrap.dedent("""
            import sys
            n = 0
            for line in sys.stdin:
                if line.strip():
                    n += 1
                    continue
                sys.stdout.write("".join(f"{n}.{i}\\n" for i in range(n))[:-1])
                sys.stdout.flush()
                sys.stdout.write("\\n")
                sys.stdout.flush()
                n = 0
        """)
        with ExternalProcessModel(_script(tmp_path, "split.py", child), 2) as model:
            assert model.predict(np.zeros((3, 2))).tolist() == [3.0, 3.1, 3.2]
            assert model.predict(np.zeros((2, 2))).tolist() == [2.0, 2.1]

    def test_output_past_the_last_answer_fails_the_batch(self, tmp_path):
        # two lines per row, in one write: batch 0's extra lines must not
        # become batch 1's answers
        child = textwrap.dedent("""
            import sys
            rows = []
            for line in sys.stdin:
                if line.strip():
                    rows.append(sum(float(v) for v in line.split(",")))
                    continue
                sys.stdout.write("".join(f"{r}\\n{r + 1000}\\n" for r in rows))
                sys.stdout.flush()
                rows = []
        """)
        with ExternalProcessModel(_script(tmp_path, "twice.py", child), 2) as model:
            with pytest.raises(ModelBridgeError,
                               match=r"batch 0: .*past its 2 answer lines: b'7.0\\n1007.0"):
                model.predict(np.array([[1.0, 2.0], [3.0, 4.0]]))
            assert model._proc is None  # killed and closed
            with pytest.raises(ModelBridgeError, match="batch 1: .*past its 2 answer lines"):
                model.predict(np.array([[10.0, 20.0], [30.0, 40.0]]))

    def test_output_after_a_batch_returned_fails_the_next_batch(self, tmp_path):
        # answers, then one late line per row once the batch has returned:
        # batch 1 must not read batch 0's [1003, 1007] as its answers
        child = textwrap.dedent("""
            import sys, time
            rows = []
            for line in sys.stdin:
                if line.strip():
                    rows.append(sum(float(v) for v in line.split(",")))
                    continue
                sys.stdout.write("".join(f"{r}\\n" for r in rows))
                sys.stdout.flush()
                time.sleep(0.2)
                sys.stdout.write("".join(f"{r + 1000}\\n" for r in rows))
                sys.stdout.flush()
                rows = []
        """)
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        with ExternalProcessModel(_script(tmp_path, "late.py", child), 2) as model:
            assert model.predict(rows).tolist() == [3.0, 7.0]
            proc = model._proc
            assert select.select([proc.stdout], [], [], 10)[0]  # the late lines are in
            with pytest.raises(ModelBridgeError,
                               match=r"batch 1: .*past its last batch's answers: "
                                     r"b'1003.0\\n1007.0"):
                model.predict(rows)
            assert model._proc is None and proc.poll() is not None
            assert proc.stdin.closed and proc.stdout.closed
            assert model.predict(rows).tolist() == [3.0, 7.0]  # a fresh child

    def test_a_child_answering_while_it_reads_gets_a_batch_larger_than_the_pipes(
            self, tmp_path):
        # 20000 rows are about 320 kB of input and 160 kB of output, more than
        # a pipe holds: writing the whole batch before reading would deadlock
        rows = np.arange(40000.0).reshape(20000, 2)
        model = ExternalProcessModel(_script(tmp_path, "stream.py", STREAMING_CHILD), 2)
        result = []

        def run():
            try:
                result.append(model.predict(rows))
            except ModelBridgeError as exc:
                result.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=30)
        if worker.is_alive():
            model._proc.kill()
            worker.join(timeout=10)
        model.close()
        assert not worker.is_alive()
        assert np.array_equal(result[0], rows.sum(axis=1))
