"""Exception types shared across the package, and read_lines, the one
reader of input files."""


class SchedCheckError(Exception):
    """Base class for all package errors."""


class ConfigInvalid(SchedCheckError):
    """A ClusterConfig field violates its invariant."""


class EmptyWorkload(SchedCheckError):
    """A model was built from a trace with no tasks."""


class SlotConflict(SchedCheckError):
    """Two tasks were dispatched to the same slot (model bug if raised)."""


class MalformedRow(SchedCheckError):
    """A trace row does not parse; the message names its file and line."""

    def __init__(self, path, line_no, reason):
        super().__init__(f"{path}: line {line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class DuplicateTaskId(SchedCheckError):
    """Two trace rows carry the same task id."""


class OrphanReduce(SchedCheckError):
    """A reduce task has no sibling map in its job."""


class SpecInvalid(SchedCheckError):
    """Synthetic workload generator parameters are inconsistent."""


class UnknownTask(SchedCheckError):
    """An assertion selector names a task absent from the workload."""

    def __init__(self, task_id):
        super().__init__(f"unknown task {task_id!r}")
        self.task_id = task_id


class CoverageGap(SchedCheckError):
    """A trace task is missing from the prediction map."""


class NoFailuresInTruth(SchedCheckError):
    """Detected-failures rate is undefined when the trace has no failures."""


class PropertySyntaxError(SchedCheckError):
    """A property file line does not parse."""


class NotText(SchedCheckError):
    """An input file is not UTF-8 text."""


def read_lines(path):
    """The lines of the UTF-8 text file at `path`, read as they are drawn,
    with their line ends untranslated (as csv wants them). A byte-order
    mark at the start is dropped. A byte that is not UTF-8 raises NotText,
    which names the file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise NotText(f"{path} is not UTF-8 text: {exc}") from None
