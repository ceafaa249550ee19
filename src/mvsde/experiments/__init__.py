"""Named experiments, their configuration files, result records, and
the command line entry point."""

from . import config, records, runner
from .config import *
from .records import *
from .runner import *

__all__ = [*config.__all__, *records.__all__, *runner.__all__]
