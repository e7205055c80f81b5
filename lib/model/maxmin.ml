let solve ~nu cps = Equilibrium.solve ~nu cps

let mechanism = { Alloc.name = "max-min"; solve }
