// Fixture: EXC002 — throwing protocol calls inside a repair-critical
// function: member calls, and collectives qualified the way src/ writes
// them (`msg::`, `dynmpi::msg::`).
namespace dynmpi::msg {
struct Rank {
    void recv_wire(int, unsigned long long);
    void recv_payload(int, unsigned long long);
};
void bcast(Rank&, int, int, int);
int allreduce_scalar(Rank&, int, int, int);
}  // namespace dynmpi::msg
using namespace dynmpi;
// dynmpi-lint: repair-critical
void repair_membership(msg::Rank& r) {
    r.recv_wire(0, 0);
    r.recv_payload(0, 0);
    msg::bcast(r, 0, 0, 0);
    dynmpi::msg::allreduce_scalar(r, 0, 0, 0);
}
