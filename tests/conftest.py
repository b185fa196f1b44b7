import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

# deterministic examples, no timing failures, no example database on disk
settings.register_profile("hficov", derandomize=True, deadline=None, database=None)
settings.load_profile("hficov")
