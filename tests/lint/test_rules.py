"""Per-rule fixture-snippet tests: positives, negatives, edge shapes.

Each rule is driven directly against in-memory modules; the engine-level
behavior (zones, pragmas) is tested in ``test_engine``.
"""

from __future__ import annotations

import pytest

from repro.lint.rules.clock import WallClockRule
from repro.lint.rules.fs import UnsortedScanRule
from repro.lint.rules.rng import UnseededRngRule
from repro.lint.rules.writes import NonAtomicWriteRule


def check(rule, module):
    return list(rule.check(module))


class TestUnseededRng:
    RULE = UnseededRngRule()

    @pytest.mark.parametrize(
        "source",
        [
            "import random\nx = random.random()\n",
            "import random\nrandom.shuffle(items)\n",
            "import random\nrandom.seed(0)\n",
            "from random import randint\nx = randint(0, 9)\n",
            "import numpy as np\nx = np.random.randint(0, 9)\n",
            "import numpy\nx = numpy.random.rand(3)\n",
        ],
    )
    def test_global_draws_flagged(self, module_from, source):
        findings = check(self.RULE, module_from(source))
        assert len(findings) == 1
        assert findings[0].rule_id == "RL001"

    def test_argless_constructors_flagged(self, module_from):
        source = """
        import random
        import numpy as np
        a = random.Random()
        b = np.random.default_rng()
        c = random.SystemRandom()
        """
        findings = check(self.RULE, module_from(source))
        assert len(findings) == 3
        assert {f.line for f in findings} == {4, 5, 6}

    def test_seeded_constructors_pass(self, module_from):
        source = """
        import random
        import numpy as np
        rng = random.Random(seed)
        gen = np.random.default_rng(derived)
        state = np.random.RandomState(0)
        """
        assert check(self.RULE, module_from(source)) == []

    def test_instance_methods_pass(self, module_from):
        # rng is a local binding, not an import: resolution is anchored
        source = """
        import random
        rng = random.Random(7)
        x = rng.random()
        rng.shuffle(items)
        """
        assert check(self.RULE, module_from(source)) == []

    def test_finding_has_position(self, module_from):
        source = "import random\nx = random.random()\n"
        (finding,) = check(self.RULE, module_from(source))
        assert (finding.line, finding.col) == (2, 5)


class TestWallClock:
    RULE = WallClockRule()

    @pytest.mark.parametrize(
        "source",
        [
            "import time\nt = time.time()\n",
            "import time\nt = time.monotonic()\n",
            "from time import time\nt = time()\n",
            "import datetime\nnow = datetime.datetime.now()\n",
            "from datetime import datetime\nnow = datetime.now()\n",
        ],
    )
    def test_wall_clock_calls_flagged(self, module_from, source):
        findings = check(self.RULE, module_from(source))
        assert len(findings) == 1
        assert findings[0].rule_id == "RL002"

    def test_injectable_clock_default_passes(self, module_from):
        # referencing time.time as a default is THE sanctioned idiom —
        # only calls are flagged
        source = """
        import time

        def renew(lease, clock=time.time):
            return clock()
        """
        assert check(self.RULE, module_from(source)) == []

    def test_perf_counter_exempt(self, module_from):
        source = "import time\nt0 = time.perf_counter()\n"
        assert check(self.RULE, module_from(source)) == []


class TestUnsortedScan:
    RULE = UnsortedScanRule()

    @pytest.mark.parametrize(
        "source",
        [
            "import os\nnames = os.listdir(root)\n",
            "import glob\npaths = glob.glob(pattern)\n",
            "for p in path.iterdir():\n    pass\n",
            "hits = list(root.glob('*.json'))\n",
        ],
    )
    def test_unsorted_scans_flagged(self, module_from, source):
        findings = check(self.RULE, module_from(source))
        assert len(findings) == 1
        assert findings[0].rule_id == "RL003"

    @pytest.mark.parametrize(
        "source",
        [
            "import os\nnames = sorted(os.listdir(root))\n",
            "for p in sorted(path.iterdir()):\n    pass\n",
            "hits = sorted(list(root.glob('*.json')))\n",
        ],
    )
    def test_sorted_scans_pass(self, module_from, source):
        assert check(self.RULE, module_from(source)) == []

    def test_unrelated_methods_pass(self, module_from):
        source = "rows = table.glob\nx = matcher.match(p)\n"
        assert check(self.RULE, module_from(source)) == []


class TestNonAtomicWrite:
    RULE = NonAtomicWriteRule()

    @pytest.mark.parametrize(
        "source",
        [
            "with open(p, 'w') as fh:\n    fh.write(x)\n",
            "with open(p, mode='w') as fh:\n    fh.write(x)\n",
            "path.write_text(payload)\n",
            "path.write_bytes(blob)\n",
            "import json\njson.dump(doc, fh)\n",
            "with p.open('w') as fh:\n    fh.write(x)\n",
        ],
    )
    def test_bare_writes_flagged(self, module_from, source):
        findings = check(self.RULE, module_from(source))
        assert len(findings) == 1
        assert findings[0].rule_id == "RL004"
        assert "transport's write_atomic" in findings[0].message

    @pytest.mark.parametrize(
        "source",
        [
            # append-only streaming is the second sanctioned idiom
            "with open(p, 'a') as fh:\n    fh.write(line)\n",
            "with p.open('a') as fh:\n    fh.write(line)\n",
            # reads are not writes
            "with open(p) as fh:\n    data = fh.read()\n",
            "with open(p, 'r') as fh:\n    data = fh.read()\n",
            # non-literal mode: the rule proves, it does not guess
            "with open(p, mode) as fh:\n    pass\n",
            # json.dumps returns a string — no file is touched
            "import json\ntext = json.dumps(doc)\n",
        ],
    )
    def test_sanctioned_shapes_pass(self, module_from, source):
        assert check(self.RULE, module_from(source)) == []
