"""SL004 fixture (good): every acquire is released on all paths."""


def hold_slot_with(env, resource):
    with resource.request() as req:
        yield req
        yield env.timeout(5.0)


def hold_slot_finally(env, resource):
    req = resource.request()
    try:
        yield req
        yield env.timeout(5.0)
    finally:
        resource.release(req)


def place_task(machine, task):
    machine.allocate(task.cores, task.memory_gb)
    try:
        run(task)
    finally:
        machine.release(task.cores, task.memory_gb)


def run(task):
    pass


class Placer:
    """Hands the claim to the process that holds it: released there in a
    try/finally."""

    def __init__(self, env):
        self.env = env

    def start(self, machine, task):
        machine.allocate(task.cores, task.memory_gb)
        self.env.process(self._hold(machine, task))

    def _hold(self, machine, task):
        try:
            yield self.env.timeout(task.work)
        finally:
            machine.release(task.cores, task.memory_gb)
