"""The three workloads: how a round's inputs are drawn from the benchmark
seed, which CLI commands a round issues, and which checks its outputs pass.

A round is one problem, run in a fresh process (see worker.py): set-up draws
its inputs and writes any input files, then the round's commands run one
after another, then the checks read the artifacts each command left.
"""

import json
from pathlib import Path

import numpy as np

import reference as ref

# Truth regions, as fractions of each bound interval: the midpoint region and
# the two corner regions. All stay off the bound edges, where a relative
# error against a near-zero truth would mean nothing.
REGIONS = ((0.40, 0.60), (0.15, 0.30), (0.70, 0.85))
NOISE_STD = 1e-3
# Rounds are kept a few seconds long, so that a run holds enough of them for
# a steady median on a shared machine. train-surrogate would stop on its own
# only after about 1,700 epochs (minutes) at this scale, so its epochs are capped;
# tpo runs one cycle per command (each of the default five does the same
# work), with every other setting at the CLI default.
SURROGATE_EPOCHS = 4
TPO_CYCLES = 1

# Tiny sizes for the self-test: every check still runs.
TINY_SETS = ["datagen.n_episodes=8", "datagen.horizon=20",
             "datagen.n_param_sets=4", "surrogate.hidden_width=16",
             "surrogate.max_epochs=3",
             "refine.max_steps=20", "tpo.cycles=2", "tpo.rollouts_per_cycle=6",
             "tpo.m=2", "tpo.epochs_per_cycle=3", "tpo.rollout_horizon=5"]


def _draw_truth(rng, region):
    lo, hi = REGIONS[region]
    return ref.LOWS + (lo + (hi - lo) * rng.random(3)) * (ref.HIGHS - ref.LOWS)


def _sets(pairs):
    out = []
    for s in pairs:
        out += ["--set", s]
    return out


def _max_rel_err(fpd, truth):
    return float(np.max(np.abs(fpd - truth) / np.abs(truth)))


class Round:
    """Inputs and commands of one round; the subclasses add the checks."""

    min_rounds = 1

    def __init__(self, seed, r, out, tiny=False):
        self.r = r
        self.out = Path(out)
        self.tiny = tiny
        rng = np.random.default_rng([seed, r])
        self.draw(rng)
        self.cli_seed = int(rng.integers(2 ** 31))
        self.artifacts = {}  # command label -> {file name: text}

    def base(self, extra=()):
        sets = list(extra) + (TINY_SETS if self.tiny else [])
        return ["--out", str(self.out), "--seed", str(self.cli_seed)] + _sets(sets)

    def setup(self, cli_main):
        """Untimed work of set-up that needs the program."""

    def keep(self, label):
        """Read the artifacts a command left, before the next overwrites them."""
        self.artifacts[label] = {
            name: (self.out / name).read_text()
            for name in self.KEEP.get(label, ()) if (self.out / name).exists()}

    def text(self, label, name):
        return self.artifacts[label][name]


class IdentifyRound(Round):
    """datagen, identify --method sa, identify --method grad on one truth.
    Rounds cycle through the three regions, noise-free then noisy."""

    min_rounds = 6
    KEEP = {"identify_sa": ("identified_params.json", "identify_report.csv"),
            "identify_grad": ("identified_params.json", "identify_report.csv"),
            "datagen": ("episodes.json",)}

    def draw(self, rng):
        self.truth = _draw_truth(rng, self.r % 3)
        self.noisy = (self.r // 3) % 2 == 1

    def commands(self):
        base = self.base([f"datagen.truth={json.dumps(self.truth.tolist())}",
                          f"plant.obs_noise_std={NOISE_STD if self.noisy else 0.0}"])
        return [("datagen", base + ["datagen"]),
                ("identify_sa", base + ["identify", "--method", "sa"]),
                ("identify_grad", base + ["identify", "--method", "grad"])]

    def _params(self, label):
        return ref.parse_params(self.text(label, "identified_params.json"))

    def _report(self, label):
        return ref.parse_report(self.text(label, "identify_report.csv"))

    def check(self):
        eps = ref.parse_episodes(self.text("datagen", "episodes.json"))
        out = ref.check_sa(self._params("identify_sa"), self._report("identify_sa"), eps)
        out += ref.check_grad(self._params("identify_grad"),
                              self._report("identify_grad"), eps, self.truth,
                              self.noisy)
        return out

    def quality(self):
        return {"sa_param_err": _max_rel_err(self._params("identify_sa"), self.truth),
                "grad_param_err": _max_rel_err(self._params("identify_grad"), self.truth)}


class SurrogateRound(Round):
    """train-surrogate on the dataset made at set-up, capped at
    SURROGATE_EPOCHS epochs, then identify --method surrogate from the
    checkpoint."""

    min_rounds = 2
    KEEP = {"train_surrogate": ("train_loss.csv", "checkpoint.json"),
            "identify_surrogate": ("identified_params.json", "identify_report.csv")}

    def draw(self, rng):
        self.truth = _draw_truth(rng, self.r % 3)

    def _base(self):
        return self.base([f"datagen.truth={json.dumps(self.truth.tolist())}",
                          f"surrogate.max_epochs={SURROGATE_EPOCHS}"])

    def setup(self, cli_main):
        if cli_main(self._base() + ["datagen"]) != 0:
            raise RuntimeError("set-up datagen failed")
        self.episodes = ref.parse_episodes((self.out / "episodes.json").read_text())

    def commands(self):
        return [("train_surrogate", self._base() + ["train-surrogate"]),
                ("identify_surrogate", self._base() + [
                    "identify", "--method", "surrogate",
                    "--checkpoint", str(self.out / "checkpoint.json")])]

    def _params(self):
        return ref.parse_params(self.text("identify_surrogate", "identified_params.json"))

    def _losses(self):
        return ref.parse_curve(self.text("train_surrogate", "train_loss.csv"))

    def check(self):
        # imported here: run.py imports this module without armcal on the path
        from armcal import serialize
        ckpt = self.text("train_surrogate", "checkpoint.json")
        again = serialize.to_canonical_json(serialize.checkpoint_to_json(
            serialize.checkpoint_from_json(json.loads(ckpt)))) + "\n"
        report = ref.parse_report(self.text("identify_surrogate", "identify_report.csv"))
        return ref.check_surrogate(self._params(), report,
                                   self.episodes, self._losses(), ckpt, again)

    def quality(self):
        return {"surrogate_train_loss": self._losses()[-1],
                "surrogate_param_err": _max_rel_err(self._params(), self.truth)}


class TpoRound(Round):
    """armcal tpo on a parameter file written at set-up: TPO_CYCLES cycles,
    every other setting at the CLI default."""

    min_rounds = 2
    KEEP = {"tpo": ("tpo_report.jsonl", "policy.json")}

    def draw(self, rng):
        self.params = _draw_truth(rng, self.r % 3)

    def setup(self, cli_main):
        (self.out / "params.json").write_text(json.dumps(
            dict(zip("fpd", self.params.tolist()))))

    def commands(self):
        return [("tpo", self.base([f"tpo.cycles={TPO_CYCLES}"])
                 + ["tpo", "--params", str(self.out / "params.json")])]

    def _cycles(self):
        return [json.loads(line) for line in
                self.text("tpo", "tpo_report.jsonl").splitlines() if line.strip()]

    def check(self):
        return ref.check_tpo(self._cycles(), json.loads(self.text("tpo", "policy.json")))

    def quality(self):
        return {"tpo_goal_dist_m": -self._cycles()[-1]["mean_reward_after"]}


WORKLOADS = {"identify": IdentifyRound, "surrogate": SurrogateRound,
             "tpo": TpoRound}
# Result-quality figures of the rounds; deterministic under the seed.
QUALITY = ("sa_param_err", "grad_param_err", "surrogate_train_loss",
           "surrogate_param_err", "tpo_goal_dist_m")
