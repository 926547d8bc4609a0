module updlrm/bench

go 1.24

require updlrm v0.0.0

replace updlrm => ../
