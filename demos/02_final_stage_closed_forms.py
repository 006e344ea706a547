"""The final match is solvable by hand. This script prints the solution.

Both finalists exert the same effective effort, hawks add a fixed dose of
sabotage priced at unit marginal cost, and the four continuation payoffs
are strictly ordered for every parameter choice.
"""

from tourney import PowerCost, ProbitUniformCsf, TullockCsf
from tourney.stage2 import solve_stage2

print("== ratio contest, prize 80, cost s^3/12 ==")
sol = solve_stage2(TullockCsf(r=1.0), PowerCost(3.0, 12.0), 80.0)
print(f"  effective effort  {sol.base_effort}")
print(f"  hawk sabotage     {sol.sabotage}")
menu = sol.menu
print(f"  dove vs dove      {menu.dove_vs_dove:.6f}")
print(f"  hawk vs dove      {menu.hawk_vs_dove:.6f}")
print(f"  dove vs hawk      {menu.dove_vs_hawk:.6f}")
print(f"  hawk vs hawk      {menu.hawk_vs_hawk:.6f}")
print(f"  strictly ordered: {menu.ordered}")

print()
print("== gross effort profiles by pairing ==")
for pairing, (left, right) in sorted(sol.profiles.items()):
    print(f"  {pairing}: x = ({left.x:.4f}, {right.x:.4f})"
          f"  s = ({left.s:.4f}, {right.s:.4f})")

print()
print("== sabotage never responds to the prize ==")
cost = PowerCost(3.0, 27.0)
csf = ProbitUniformCsf(half_width=5.0, f_exponent=0.5)
for prize in (20.0, 200.0, 2000.0):
    final = solve_stage2(csf, cost, prize)
    print(f"  prize {prize:>6}: effort {final.base_effort:.6f}"
          f"  sabotage {final.sabotage}")
print(f"  (the dose is pinned by the cost function alone:"
      f" marginal cost 1 at s = {cost.marginal_inverse(1.0)})")

print()
print("== effort does respond, and the two families scale differently ==")
for prize in (20.0, 40.0, 60.0):
    b_ratio = solve_stage2(TullockCsf(r=1.0), cost, prize).base_effort
    b_noise = solve_stage2(csf, cost, prize).base_effort
    print(f"  prize {prize:>5}: ratio {b_ratio:>6.2f}   noisy {b_noise:.4f}")
