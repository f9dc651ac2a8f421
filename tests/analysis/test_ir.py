"""Tests for the shared AST index both static passes read."""

import os
import textwrap

from repro.analysis.ir import RepoIndex, module_name, own_body
from repro.analysis.lint import call_name

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")


def _index(**sources):
    index = RepoIndex()
    for name, source in sorted(sources.items()):
        index.add_source(textwrap.dedent(source),
                         "src/" + name.replace(".", "/") + ".py")
    return index


def _functions(index):
    """Every indexed function, by dotted qualname."""
    return {info.qualname: info for module in index.modules.values()
            for info in module.functions}


# -- module / function indexing --------------------------------------------

def test_module_name_strips_src_anchor():
    assert module_name("src/repro/net/network.py") == "repro.net.network"
    assert module_name("src/repro/sim/__init__.py") == "repro.sim"


def test_functions_get_dotted_qualnames():
    index = _index(**{"repro.thing": """
        def top():
            pass

        class Box:
            def method(self):
                def nested():
                    pass
                return nested
        """})
    functions = _functions(index)
    assert set(functions) == {"repro.thing.top", "repro.thing.Box.method",
                              "repro.thing.Box.method.nested"}
    assert functions["repro.thing.Box.method"].cls == "Box"
    assert functions["repro.thing.top"].cls is None


def test_generator_detection_ignores_nested_defs():
    index = _index(**{"repro.gen": """
        def outer():
            def inner():
                yield 1
            return inner

        def actor(env):
            yield env.timeout(1)
        """})
    generators = {name for name, info in _functions(index).items()
                  if info.is_generator}
    assert generators == {"repro.gen.outer.inner", "repro.gen.actor"}


def test_own_body_does_not_descend_into_nested_scopes():
    import ast
    tree = ast.parse("def f():\n    a = 1\n    def g():\n        b = 2\n")
    func = tree.body[0]
    names = {node.id for node in own_body(func)
             if isinstance(node, ast.Name)}
    assert "a" in names
    assert "b" not in names


def test_fast_path_marker_attaches_through_comment_block():
    index = _index(**{"repro.fast": """
        # repro: fast-path — hot loop, keep allocations out.
        # second comment line between marker and def.
        def hot():
            pass

        def cold():
            pass
        """})
    functions = _functions(index)
    assert functions["repro.fast.hot"].fast_path
    assert not functions["repro.fast.cold"].fast_path


def test_syntax_error_module_is_kept_with_error():
    index = _index(**{"repro.broken": "def broken(:\n"})
    module = index.modules["src/repro/broken.py"]
    assert module.tree is None
    assert module.error is not None
    assert module.functions == []


def test_build_walks_the_fixture_tree():
    index = RepoIndex.build([os.path.join(FIXTURES, "protocol")])
    assert any(path.endswith("actor_violations.py")
               for path in index.modules)


def test_call_name_renders_dotted_chains():
    import ast
    call = ast.parse("self.table.acquire('k')").body[0].value
    assert call_name(call) == "self.table.acquire"
    computed = ast.parse("get_thing().run()").body[0].value
    assert call_name(computed) == ""
