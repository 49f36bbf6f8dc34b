module planted

go 1.22
