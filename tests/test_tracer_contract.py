"""The benchmark's tracer (perfbench/tracer.py) rebinds public names of the
program at run time. A refactor that renames one of them, or that stops
calling through the module global, breaks only traced benchmark runs; this
test catches it in the ordinary suite.
"""

import importlib.util
import pathlib

import numpy as np

import probtree as pt

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_operations_record_nested_calls(iris):
    tracer_mod = load_tracer_module()
    original_learn = pt.learn
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        def calls_of(operation):
            before = tracer.snapshot()
            result = operation()
            return result, tracer_mod.delta(before, tracer.snapshot())[1]

        model, calls = calls_of(lambda: pt.learn(iris, pt.LearnerConfig(min_samples_leaf=0.2)))
        assert calls.get("probtree.learn", 0) == 1
        # leaf fitting calls each fitter once per leaf and variable, so that
        # the traced split of learn into leaf fitting and split search holds
        leaves = len(model.table.prior)
        numeric = sum(var.numeric for var in model.schema)
        assert leaves > 1 and 0 < numeric < len(model.schema)
        assert calls.get("learner.cdf_learn", 0) == leaves * numeric
        assert calls.get("learner.build_quantile_dataset", 0) == leaves * numeric
        assert calls.get("Multinomial.fit", 0) == leaves * (len(model.schema) - numeric)

        _, calls = calls_of(lambda: pt.log_likelihood(model, iris))
        assert calls.get("probtree.log_likelihood", 0) == 1
        _, calls = calls_of(lambda: model.descend(iris.values[0]))
        assert calls.get("TreeModel.descend", 0) == 1

        e = pt.make_assignment(model.schema, {"petal_length": (1.0, 5.0)})
        q = pt.make_assignment(model.schema, {"species": ["setosa"]})
        rng = np.random.default_rng(0)
        for name, operation in [
                ("event_probability", lambda: pt.event_probability(model, q, e)),
                ("posterior_distributions", lambda: pt.posterior_distributions(model, e)),
                ("mpe", lambda: pt.mpe(model, e)),
                ("sample", lambda: pt.sample(model, 10, rng, e))]:
            _, calls = calls_of(operation)
            assert calls.get(f"probtree.{name}", 0) == 1, name
            assert calls.get("inference.leaf_posterior", 0) == 1, name
        # the tracer does not wrap expectation_query itself, only the one
        # leaf_posterior call it makes
        _, calls = calls_of(lambda: pt.expectation_query(model, "petal_width", e))
        assert calls.get("inference.leaf_posterior", 0) == 1
    finally:
        tracer.uninstall()
    assert pt.learn is original_learn
