from bessel_tr import CorrelatorTable, partition_function, principal_specialize


def test_readme_worked_example():
    table = CorrelatorTable()
    assert str(table.value(2, (3, 1))) == "9/128"
    psi = principal_specialize(partition_function(table, 4))
    coeffs = [str(psi.coefficient([(1, d)])) for d in range(5)]
    assert coeffs == ["1", "1/8", "9/128", "75/1024", "3675/32768"]

