import pickle

import pytest

from esfem import errors, verification
from esfem.mesh import QualityReport

# One instance of every library error, built as the library raises it.
EXAMPLES = {
    errors.DegenerateElement: lambda: errors.DegenerateElement(4, 1e-20),
    errors.FieldLengthMismatch: lambda: errors.FieldLengthMismatch("field has 3 entries"),
    errors.NonFiniteIntegrand: lambda: errors.NonFiniteIntegrand("integrand non-finite"),
    errors.MissingExactSolution: lambda: errors.MissingExactSolution("no exact solution"),
    errors.EmptyTrajectory: lambda: errors.EmptyTrajectory("no states"),
    errors.MeshDegenerated: lambda: errors.MeshDegenerated(0.5, QualityReport(3.0, 40.0, 1e-4)),
    errors.LinearSolveFailure: lambda: errors.LinearSolveFailure("stalled", 1e-3),
    errors.NonFiniteState: lambda: errors.NonFiniteState(0.25, ["u", "x"]),
    verification.DegenerateIntermediateMesh:
        lambda: verification.DegenerateIntermediateMesh("a blended mesh has collapsed"),
}


def all_subclasses(cls):
    subs = cls.__subclasses__()
    return set(subs).union(*(all_subclasses(s) for s in subs))


def test_every_library_error_has_an_example():
    # tests may subclass a library error; only the library's own count here
    library = {cls for cls in all_subclasses(errors.EsfemError)
               if cls.__module__.split(".")[0] == "esfem"}
    assert library == set(EXAMPLES)


@pytest.mark.parametrize("cls", sorted(EXAMPLES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_round_trips_through_pickle(cls, protocol):
    err = EXAMPLES[cls]()
    err.note = ["kept"]  # attributes set after raising travel too
    again = pickle.loads(pickle.dumps(err, protocol=protocol))
    assert type(again) is cls
    assert str(again) == str(err) and again.args == err.args
    assert vars(again) == vars(err)
