"""Run configurations and their defaults, each declared once.

The library's runs and the ``graphkd`` parser's defaults share these
dataclasses. Nothing here imports numpy, so a command reads its flags
without loading the numeric code of any other subcommand.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import ConfigError, check_finite

SPLITS = ("train", "val", "test")
# Signature tokens per topic in a synthetic text (see ``datagen``).
SIGNATURE_TOKENS = 8
DEFAULT_LEARNING_RATE = {"adam": 0.001, "sgd": 0.01}
STUDENT_KINDS = ("mlp", "transformer")


def check_seed(seed: int) -> None:
    """A run's seed seeds numpy's ``PCG64``, which takes no negative value."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


@dataclass
class SynthConfig:
    samples: int = 2000
    classes: int = 4
    dim: int = 64
    noise: float = 0.6
    mask_prob: float = 0.5
    label_noise: float = 0.25
    triplets_per_class: int = 8
    split_fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
    seed: int = 7

    def validate(self) -> None:
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        if self.samples < self.classes:
            raise ConfigError(f"need at least {self.classes} samples, got {self.samples}")
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        check_finite(self, "noise")
        if self.noise < 0:
            raise ConfigError(f"noise scale must be >= 0, got {self.noise}")
        # generate_synthetic draws each confuser count from [0, this] as an
        # int64, whose largest value is 2**63 - 1.
        if round(2 * self.noise * SIGNATURE_TOKENS) >= 2**63 - 1:
            raise ConfigError(f"noise scale {self.noise} is too large: its confuser count "
                              f"overflows int64")
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ConfigError(f"mask probability must be in [0, 1], got {self.mask_prob}")
        if not 0.0 <= self.label_noise < 1.0:
            raise ConfigError(f"label noise must be in [0, 1), got {self.label_noise}")
        if self.triplets_per_class < 1:
            raise ConfigError("need at least one triplet per class")
        if len(self.split_fractions) != 3 or not abs(sum(self.split_fractions) - 1.0) <= 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {self.split_fractions}")
        check_seed(self.seed)


def resolved_learning_rate(config: TrainConfig) -> float:
    """The configured learning rate, else the optimizer's default."""
    if config.learning_rate is not None:
        return config.learning_rate
    return DEFAULT_LEARNING_RATE[config.optimizer]


@dataclass
class TrainConfig:
    """The fields a teacher's and a student's training run share. ``SIZES``
    names the fields that must be at least 1."""

    dim: int
    num_classes: int
    hidden: int = 64
    epochs: int = 30
    optimizer: str = "adam"
    learning_rate: float | None = None
    seed: int = 0
    SIZES = ("hidden", "epochs")

    def validate(self) -> None:
        """The flags of a run, checked before any input is read."""
        if self.optimizer not in DEFAULT_LEARNING_RATE:
            raise ConfigError(f"unknown optimizer '{self.optimizer}'")
        check_finite(self, "learning_rate")
        if self.learning_rate is not None and self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        for name in self.SIZES:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_seed(self.seed)

    def to_dict(self) -> dict:
        """Every field, with the learning rate resolved: a checkpoint's echo."""
        return {**asdict(self), "learning_rate": resolved_learning_rate(self)}


@dataclass
class TeacherConfig(TrainConfig):
    head_hidden: int = 64
    SIZES = ("hidden", "head_hidden", "epochs")


@dataclass(kw_only=True)
class DistillConfig(TrainConfig):
    student: str
    kd_weight: float = 1.0
    temperature: float = 1.0

    def validate(self) -> None:
        if self.student not in STUDENT_KINDS:
            raise ConfigError(f"unknown student kind '{self.student}'")
        check_finite(self, "kd_weight", "temperature")
        if self.kd_weight < 0:
            raise ConfigError(f"kd weight must be >= 0, got {self.kd_weight}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        super().validate()
