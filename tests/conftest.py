import faulthandler
import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Per-test time limit. The slowest test takes ~16 s on one cpu, so a test
# still running after TEST_TIME_LIMIT_S is stuck (say, on a Ray task that
# never completes): it fails, with every thread's stack in its captured
# stderr, instead of holding the whole run until the run's own limit.
TEST_TIME_LIMIT_S = 300
# a hypothesis test re-runs a failing example while it shrinks; a re-run
# that is stuck again fails after this long
RETRY_TIME_LIMIT_S = 30


@pytest.fixture(autouse=True)
def _test_time_limit():
    def expire(signum, frame):
        print(f"test still running after {TEST_TIME_LIMIT_S} s; "
              "stacks:", file=sys.stderr, flush=True)
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        signal.signal(signal.SIGALRM, expire_again)
        signal.alarm(RETRY_TIME_LIMIT_S)
        # SystemExit is the one exception a blocked ray.get passes on
        # (it swallows any other, and KeyboardInterrupt ends the session)
        raise SystemExit(f"test still running after {TEST_TIME_LIMIT_S} s")

    def expire_again(signum, frame):
        signal.alarm(RETRY_TIME_LIMIT_S)
        raise SystemExit("stuck again on a re-run")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (local, 4 CPUs)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()
